package openflow

import (
	"math/rand"
	"testing"

	"yanc/internal/ethernet"
)

// randomFieldValue overwrites field f of m with a value from a
// two-element universe, so random matches collide often.
func randomFieldValue(r *rand.Rand, m *Match, f Field) {
	bit := r.Intn(2)
	switch f {
	case FieldInPort:
		m.InPort = uint32(bit)
	case FieldDLSrc:
		m.DLSrc = ethernet.MACFromUint64(uint64(bit))
	case FieldDLDst:
		m.DLDst = ethernet.MACFromUint64(uint64(bit))
	case FieldDLType:
		m.DLType = []uint16{0x0800, 0x0806}[bit]
	case FieldDLVLAN:
		m.VLANID = uint16(bit)
	case FieldDLVLANPCP:
		m.VLANPCP = uint8(bit)
	case FieldNWTos:
		m.NWTos = uint8(4 * bit)
	case FieldNWProto:
		m.NWProto = []uint8{6, 17}[bit]
	case FieldNWSrc, FieldNWDst:
		// Same network, different host bits or lengths: 10.0.0.1/24 and
		// 10.0.0.0/24 match the same packets but are different matches.
		p := ethernet.Prefix{Addr: ethernet.IP4{10, 0, 0, byte(r.Intn(2))}, Bits: []uint8{24, 32}[bit]}
		if f == FieldNWSrc {
			m.NWSrc = p
		} else {
			m.NWDst = p
		}
	case FieldTPSrc:
		m.TPSrc = uint16(80 * bit)
	case FieldTPDst:
		m.TPDst = uint16(80 * bit)
	}
}

// randomIdentityMatch fills every field — set or not, so unset fields
// carry garbage — and sets a random subset of the canonical fields.
func randomIdentityMatch(r *rand.Rand) Match {
	var m Match
	for _, f := range AllFields {
		randomFieldValue(r, &m, f)
		if r.Intn(2) == 0 {
			m.Set |= f
		}
	}
	return m
}

// TestQuickEqualAgreesWithKey pins the value-compare Equal to the
// string identity it replaced: for random matches, including garbage in
// unset fields, a.Equal(b) exactly when a.Key() == b.Key(). Half the
// pairs are a match and a copy with a few fields or Set bits redrawn, so
// both outcomes are common.
func TestQuickEqualAgreesWithKey(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var equal, differ int
	for i := 0; i < 20000; i++ {
		a := randomIdentityMatch(r)
		b := randomIdentityMatch(r)
		if r.Intn(2) == 0 {
			b = a
			for k := r.Intn(3); k > 0; k-- {
				f := AllFields[r.Intn(len(AllFields))]
				if r.Intn(3) == 0 {
					b.Set ^= f
				} else {
					randomFieldValue(r, &b, f)
				}
			}
		}
		got, want := a.Equal(b), a.Key() == b.Key()
		if got != want {
			t.Fatalf("pair %d: Equal = %v, keys equal = %v\n a: %+v (%s)\n b: %+v (%s)",
				i, got, want, a, a.Key(), b, b.Key())
		}
		if id := a.Identity(); id.Key() != a.Key() || !id.Equal(a) {
			t.Fatalf("pair %d: Identity changed the match: %s vs %s", i, id.Key(), a.Key())
		}
		if got {
			equal++
		} else {
			differ++
		}
	}
	if equal < 1000 || differ < 1000 {
		t.Fatalf("weak sample: %d equal pairs, %d different", equal, differ)
	}
}

// TestMatchIdentityAllocFree checks that Equal and Identity, which
// switch tables and the driver's flow index run per flow-mod, do not
// allocate.
func TestMatchIdentityAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a, b := randomIdentityMatch(r), randomIdentityMatch(r)
	var same bool
	var id Match
	allocs := testing.AllocsPerRun(100, func() {
		same = a.Equal(b)
		id = a.Identity()
	})
	if allocs != 0 {
		t.Errorf("Equal+Identity allocated %v times per run; want 0", allocs)
	}
	_, _ = same, id
}
