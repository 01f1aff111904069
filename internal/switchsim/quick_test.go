package switchsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
)

// randomMatch builds a random match over a small field universe so
// overlaps are common.
func randomMatch(r *rand.Rand) openflow.Match {
	var m openflow.Match
	set := func(f openflow.Field, v string) {
		if err := m.SetField(f, v); err != nil {
			panic(err)
		}
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldInPort, fmt.Sprint(1+r.Intn(3)))
	}
	if r.Intn(2) == 0 {
		set(openflow.FieldDLType, "0x0800")
		if r.Intn(2) == 0 {
			set(openflow.FieldNWProto, fmt.Sprint([]int{1, 6, 17}[r.Intn(3)]))
		}
		if r.Intn(2) == 0 {
			bits := []int{8, 16, 24, 32}[r.Intn(4)]
			set(openflow.FieldNWSrc, fmt.Sprintf("10.%d.0.0/%d", r.Intn(3), bits))
		}
		if r.Intn(3) == 0 {
			set(openflow.FieldTPDst, fmt.Sprint([]int{22, 80, 443}[r.Intn(3)]))
		}
	}
	return m
}

// randomPacket builds a packet whose fields land in the same universe.
func randomPacket(r *rand.Rand) openflow.PacketFields {
	pf := openflow.PacketFields{
		InPort: uint32(1 + r.Intn(3)),
		DLSrc:  ethernet.MACFromUint64(uint64(r.Intn(4))),
		DLDst:  ethernet.MACFromUint64(uint64(r.Intn(4))),
		DLType: 0x0800,
	}
	pf.NWProto = uint8([]int{1, 6, 17}[r.Intn(3)])
	pf.NWSrc = ethernet.IP4{10, byte(r.Intn(3)), byte(r.Intn(2)), 1}
	pf.NWDst = ethernet.IP4{192, 168, 0, 1}
	pf.TPDst = uint16([]int{22, 80, 443}[r.Intn(3)])
	return pf
}

// TestQuickTableLookupMatchesNaiveScan checks the table's lookup against
// a brute-force reference: highest priority wins, insertion order breaks
// ties.
func TestQuickTableLookupMatchesNaiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		tab := NewTable()
		type ref struct {
			e   *FlowEntry
			seq int
		}
		var refs []ref
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			e := &FlowEntry{
				Match:    randomMatch(r),
				Priority: uint16(r.Intn(4)), // few priorities: many ties
				Actions:  []openflow.Action{openflow.Output(uint32(i))},
			}
			// Replacement semantics in the reference too.
			replaced := false
			for j, rf := range refs {
				if rf.e.Priority == e.Priority && rf.e.Match.Equal(e.Match) {
					refs[j] = ref{e: e, seq: rf.seq}
					replaced = true
					break
				}
			}
			if !replaced {
				refs = append(refs, ref{e: e, seq: i})
			}
			tab.Add(e)
		}
		for probe := 0; probe < 20; probe++ {
			pf := randomPacket(r)
			got := tab.Lookup(&pf)
			// Naive scan.
			var want *FlowEntry
			wantSeq := -1
			for _, rf := range refs {
				if !rf.e.Match.MatchesPacket(&pf) {
					continue
				}
				if want == nil || rf.e.Priority > want.Priority ||
					(rf.e.Priority == want.Priority && rf.seq < wantSeq) {
					want = rf.e
					wantSeq = rf.seq
				}
			}
			if got != want {
				t.Fatalf("trial %d probe %d: lookup mismatch\n got:  %+v\n want: %+v\n packet %+v",
					trial, probe, got, want, pf)
			}
		}
	}
}

// TestQuickDeleteCoversSubsetOfAdds checks that non-strict delete with a
// wildcard removes everything, and delete with each entry's own match
// removes at least that entry.
func TestQuickDeleteCoversSubsetOfAdds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tab := NewTable()
		var matches []openflow.Match
		for i := 0; i < 1+r.Intn(8); i++ {
			m := randomMatch(r)
			tab.Add(&FlowEntry{Match: m, Priority: uint16(i)})
			matches = append(matches, m)
		}
		// Self-delete removes at least one entry per distinct match.
		m := matches[r.Intn(len(matches))]
		removed := tab.Delete(m, openflow.PortAny)
		if len(removed) == 0 {
			t.Fatalf("trial %d: deleting an installed match removed nothing (%v)", trial, m)
		}
		// Wildcard delete empties the table.
		tab.Delete(openflow.Match{}, openflow.PortAny)
		if tab.Len() != 0 {
			t.Fatalf("trial %d: wildcard delete left %d entries", trial, tab.Len())
		}
	}
}

// TestQuickExpireNeverResurrects expires entries under a random clock
// walk and checks expired entries never come back and survivors are
// exactly the unexpired ones.
func TestQuickExpireNeverResurrects(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	base := time.Unix(10000, 0)
	tab := NewTable()
	type tracked struct {
		e       *FlowEntry
		expires time.Time
	}
	var live []tracked
	now := base
	for i := 0; i < 300; i++ {
		if r.Intn(3) > 0 {
			idle := uint16(r.Intn(20))
			e := &FlowEntry{
				Match:       randomMatch(r),
				Priority:    uint16(i), // unique priority: no replacement
				IdleTimeout: idle,
				Created:     now,
				LastUsed:    now,
			}
			tab.Add(e)
			exp := time.Time{}
			if idle > 0 {
				exp = now.Add(time.Duration(idle) * time.Second)
			}
			live = append(live, tracked{e: e, expires: exp})
		}
		now = now.Add(time.Duration(r.Intn(5)) * time.Second)
		expired := tab.Expire(now)
		for _, ex := range expired {
			found := false
			for j, tr := range live {
				if tr.e == ex.Entry {
					if tr.expires.IsZero() || now.Before(tr.expires) {
						t.Fatalf("op %d: entry expired early (now=%v expires=%v)", i, now, tr.expires)
					}
					live = append(live[:j], live[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("op %d: expired unknown entry", i)
			}
		}
		if tab.Len() != len(live) {
			t.Fatalf("op %d: table has %d, model has %d", i, tab.Len(), len(live))
		}
	}
}

// TestQuickTableOpsMatchNaiveModel runs seeded random sequences of Add,
// DeleteStrict, Delete, ModifyStrict and Expire against a naive model —
// a slice of entries with insertion sequence numbers, identity compared
// by Match.Key — and after every op checks the table's Len and its
// Entries order: descending priority, insertion order within a priority,
// a replaced entry keeping its predecessor's place.
func TestQuickTableOpsMatchNaiveModel(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	type ref struct {
		e   *FlowEntry
		seq int
	}
	for trial := 0; trial < 100; trial++ {
		tab := NewTable()
		var model []ref
		seq := 0
		now := time.Unix(10000, 0)
		sameID := func(e *FlowEntry, m openflow.Match, prio uint16) bool {
			return e.Priority == prio && e.Match.Key() == m.Key()
		}
		// strictTarget picks an installed identity half the time, with
		// garbage written into its unset fields, else a random one.
		strictTarget := func() (openflow.Match, uint16) {
			if len(model) == 0 || r.Intn(2) == 0 {
				return randomMatch(r), uint16(r.Intn(4))
			}
			e := model[r.Intn(len(model))].e
			m := e.Match
			if !m.Has(openflow.FieldTPSrc) {
				m.TPSrc = uint16(r.Intn(1000))
			}
			if !m.Has(openflow.FieldNWDst) {
				m.NWDst = ethernet.Prefix{Addr: ethernet.IP4{1, 2, 3, 4}, Bits: 7}
			}
			return m, e.Priority
		}
		outPort := func() uint32 {
			if r.Intn(2) == 0 {
				return openflow.PortAny
			}
			return uint32(1 + r.Intn(3))
		}
		removeFromModel := func(keep func(*FlowEntry) bool) []*FlowEntry {
			var gone []*FlowEntry
			kept := model[:0]
			for _, rf := range model {
				if keep(rf.e) {
					kept = append(kept, rf)
				} else {
					gone = append(gone, rf.e)
				}
			}
			model = kept
			return gone
		}
		for op := 0; op < 60; op++ {
			var got, want []*FlowEntry
			switch k := r.Intn(20); {
			case k < 9:
				e := &FlowEntry{
					Match:       randomMatch(r),
					Priority:    uint16(r.Intn(4)),
					Actions:     []openflow.Action{openflow.Output(uint32(1 + r.Intn(3)))},
					IdleTimeout: uint16(r.Intn(4)),
					Created:     now,
					LastUsed:    now,
				}
				replaced := false
				for i, rf := range model {
					if sameID(rf.e, e.Match, e.Priority) {
						model[i].e = e
						replaced = true
						break
					}
				}
				if !replaced {
					seq++
					model = append(model, ref{e: e, seq: seq})
				}
				tab.Add(e)
			case k < 12:
				m, prio := strictTarget()
				port := outPort()
				got = tab.DeleteStrict(m, prio, port)
				want = removeFromModel(func(e *FlowEntry) bool {
					return !sameID(e, m, prio) || !outputsTo(e, port)
				})
			case k < 14:
				m := randomMatch(r)
				port := outPort()
				got = tab.Delete(m, port)
				want = removeFromModel(func(e *FlowEntry) bool {
					return !m.Covers(e.Match) || !outputsTo(e, port)
				})
			case k < 17:
				m, prio := strictTarget()
				actions := []openflow.Action{openflow.Output(uint32(1 + r.Intn(3)))}
				n := tab.ModifyStrict(m, prio, actions)
				wantN := 0
				for _, rf := range model {
					if sameID(rf.e, m, prio) {
						wantN = 1
						if rf.e.Actions[0] != actions[0] {
							t.Fatalf("trial %d op %d: ModifyStrict left actions %v, want %v", trial, op, rf.e.Actions, actions)
						}
					}
				}
				if n != wantN {
					t.Fatalf("trial %d op %d: ModifyStrict changed %d entries, want %d", trial, op, n, wantN)
				}
			default:
				now = now.Add(time.Duration(r.Intn(3)) * time.Second)
				for _, ex := range tab.Expire(now) {
					got = append(got, ex.Entry)
				}
				want = removeFromModel(func(e *FlowEntry) bool {
					return e.IdleTimeout == 0 || now.Sub(e.LastUsed) < time.Duration(e.IdleTimeout)*time.Second
				})
			}
			sort.SliceStable(model, func(i, j int) bool {
				if model[i].e.Priority != model[j].e.Priority {
					return model[i].e.Priority > model[j].e.Priority
				}
				return model[i].seq < model[j].seq
			})
			if !sameEntries(got, want) {
				t.Fatalf("trial %d op %d: removed %d entries, model removed %d", trial, op, len(got), len(want))
			}
			if tab.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len %d, model %d", trial, op, tab.Len(), len(model))
			}
			for i, e := range tab.Entries() {
				if e != model[i].e {
					t.Fatalf("trial %d op %d: entry %d is %v prio %d, model has %v prio %d",
						trial, op, i, e.Match, e.Priority, model[i].e.Match, model[i].e.Priority)
				}
			}
		}
	}
}

// sameEntries reports whether a and b hold the same entries, in any
// order.
func sameEntries(a, b []*FlowEntry) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[*FlowEntry]int)
	for _, e := range a {
		seen[e]++
	}
	for _, e := range b {
		if seen[e] == 0 {
			return false
		}
		seen[e]--
	}
	return true
}
