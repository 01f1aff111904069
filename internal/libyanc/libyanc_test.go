package libyanc

import (
	"sync"
	"testing"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

func newY(t *testing.T) *yancfs.FS {
	t.Helper()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestPutFlowMatchesFileIOLayout(t *testing.T) {
	// The fastpath — both the one-shot PutFlow and the submission ring —
	// must produce exactly the layout WriteFlow produces.
	yFast, ySlow, yRing := newY(t), newY(t), newY(t)
	for _, y := range []*yancfs.FS{yFast, ySlow, yRing} {
		if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22,nw_src=10.0.0.0/8")
	actions, _ := openflow.ParseActions("set_nw_tos=8,out=3")
	spec := yancfs.FlowSpec{Match: m, Priority: 77, IdleTimeout: 5, HardTimeout: 50, Cookie: 9, Actions: actions}

	c := New(yFast)
	v, err := c.PutFlow("/switches/sw1/flows/ssh", spec)
	if err != nil || v != 1 {
		t.Fatalf("PutFlow = %d %v", v, err)
	}
	if _, err := yancfs.WriteFlow(ySlow.Root(), "/switches/sw1/flows/ssh", spec); err != nil {
		t.Fatal(err)
	}
	r := New(yRing).NewFlowRing(RingConfig{})
	if err := r.Submit(SQE{Op: OpPut, Path: "/switches/sw1/flows/ssh", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var fast, slow, ring []string
	collect := func(y *yancfs.FS, out *[]string) {
		_ = y.Root().Walk("/switches/sw1/flows/ssh", func(path string, st vfs.Stat) error {
			line := path
			if st.Kind == vfs.KindFile {
				b, _ := y.Root().ReadFile(path)
				line += "=" + string(b)
			}
			*out = append(*out, line)
			return nil
		})
	}
	collect(yFast, &fast)
	collect(ySlow, &slow)
	collect(yRing, &ring)
	if len(fast) != len(slow) || len(ring) != len(slow) {
		t.Fatalf("layouts differ:\nfast %v\nslow %v\nring %v", fast, slow, ring)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("entry %d: fast %q slow %q", i, fast[i], slow[i])
		}
		if ring[i] != slow[i] {
			t.Errorf("entry %d: ring %q slow %q", i, ring[i], slow[i])
		}
	}
	// Both round-trip to the same spec.
	sf, err := yancfs.ReadFlow(yFast.Root(), "/switches/sw1/flows/ssh")
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Match.Equal(spec.Match) || sf.Priority != 77 || sf.Cookie != 9 {
		t.Errorf("fast read back = %+v", sf)
	}
}

func TestPutFlowRewriteClearsStaleFields(t *testing.T) {
	y := newY(t)
	if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
		t.Fatal(err)
	}
	c := New(y)
	m1, _ := openflow.ParseMatch("tp_dst=22,dl_type=0x0800,nw_proto=6")
	if _, err := c.PutFlow("/switches/sw1/flows/f", yancfs.FlowSpec{Match: m1, Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}); err != nil {
		t.Fatal(err)
	}
	m2, _ := openflow.ParseMatch("in_port=4")
	v, err := c.PutFlow("/switches/sw1/flows/f", yancfs.FlowSpec{Match: m2, Priority: 2, Actions: []openflow.Action{openflow.Output(2)}})
	if err != nil || v != 2 {
		t.Fatalf("rewrite = %d %v", v, err)
	}
	p := y.Root()
	if p.Exists("/switches/sw1/flows/f/match.tp_dst") {
		t.Error("stale match file survived")
	}
	got, err := yancfs.ReadFlow(p, "/switches/sw1/flows/f")
	if err != nil || !got.Match.Equal(m2) {
		t.Errorf("read back = %+v %v", got, err)
	}
}

func TestFlowRingCommitAtomicity(t *testing.T) {
	y := newY(t)
	p := y.Root()
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		if _, err := yancfs.CreateSwitch(p, "/", sw); err != nil {
			t.Fatal(err)
		}
	}
	// Every entry commits a complete flow: a watcher sees each flow's
	// version write, and no flow is left half-listed.
	w, err := p.AddWatch("/switches", vfs.OpWrite, vfs.Recursive(), vfs.BufferSize(8192))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := New(y).NewFlowRing(RingConfig{})
	m, _ := openflow.ParseMatch("dl_type=0x0800")
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		for i := 0; i < 5; i++ {
			if err := r.Submit(SQE{Op: OpPut, Path: "/switches/" + sw + "/flows/f" + itoa(i),
				Spec: yancfs.FlowSpec{Match: m, Priority: uint16(i), Actions: []openflow.Action{openflow.Output(1)}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Completed != 15 {
		t.Fatalf("ring completed %d entries, want 15", st.Completed)
	}
	for _, sw := range []string{"sw1", "sw2", "sw3"} {
		names, err := yancfs.ListFlows(p, "/switches/"+sw)
		if err != nil || len(names) != 5 {
			t.Fatalf("%s flows = %v %v", sw, names, err)
		}
	}
	// All 15 version writes arrive.
	versions := 0
	deadline := time.After(time.Second)
	for versions < 15 {
		select {
		case ev := <-w.C:
			if vfs.Base(ev.Path) == "version" {
				versions++
			}
		case <-deadline:
			t.Fatalf("saw %d version writes", versions)
		}
	}
}

func TestFlowRingOpCountAdvantage(t *testing.T) {
	// The whole point of libyanc: the ring must cost dramatically fewer
	// counted VFS calls than per-field file I/O (§8.1).
	yFast, ySlow := newY(t), newY(t)
	m, _ := openflow.ParseMatch("dl_type=0x0800,nw_proto=6,tp_dst=22")
	spec := yancfs.FlowSpec{Match: m, Priority: 1, Actions: []openflow.Action{openflow.Output(1)}}
	const flows = 50

	for _, y := range []*yancfs.FS{yFast, ySlow} {
		if _, err := yancfs.CreateSwitch(y.Root(), "/", "sw1"); err != nil {
			t.Fatal(err)
		}
	}
	slowBase := ySlow.VFS().Stats().Total()
	for i := 0; i < flows; i++ {
		if _, err := yancfs.WriteFlow(ySlow.Root(), "/switches/sw1/flows/f"+itoa(i), spec); err != nil {
			t.Fatal(err)
		}
	}
	slowOps := ySlow.VFS().Stats().Total() - slowBase

	fastBase := yFast.VFS().Stats().Total()
	r := New(yFast).NewFlowRing(RingConfig{})
	for i := 0; i < flows; i++ {
		if err := r.Submit(SQE{Op: OpPut, Path: "/switches/sw1/flows/f" + itoa(i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	fastOps := yFast.VFS().Stats().Total() - fastBase

	if fastOps*10 > slowOps {
		t.Errorf("fastpath not ≥10x cheaper: fast=%d slow=%d counted ops", fastOps, slowOps)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestRingBasicDelivery(t *testing.T) {
	r := NewRing(8)
	c1 := r.NewCursor()
	c2 := r.NewCursor()
	data := []byte{1, 2, 3}
	r.Publish(PacketInMsg{Switch: "sw1", PI: &openflow.PacketIn{Data: data}})
	for i, c := range []*Cursor{c1, c2} {
		m, ok := c.Next(false)
		if !ok || m.Switch != "sw1" {
			t.Fatalf("cursor %d: %+v %v", i, m, ok)
		}
		// Zero copy: both cursors share the same backing array.
		if &m.PI.Data[0] != &data[0] {
			t.Errorf("cursor %d copied the data", i)
		}
	}
	if _, ok := c1.Next(false); ok {
		t.Error("drained cursor returned a message")
	}
}

func TestRingLappingCountsDrops(t *testing.T) {
	r := NewRing(4)
	c := r.NewCursor()
	for i := 0; i < 10; i++ {
		r.Publish(PacketInMsg{PI: &openflow.PacketIn{TotalLen: uint16(i)}})
	}
	var got []uint16
	for {
		m, ok := c.Next(false)
		if !ok {
			break
		}
		got = append(got, m.PI.TotalLen)
	}
	if c.Dropped != 6 {
		t.Errorf("dropped = %d", c.Dropped)
	}
	if len(got) != 4 || got[0] != 6 || got[3] != 9 {
		t.Errorf("got = %v", got)
	}
}

func TestRingBlockingAndClose(t *testing.T) {
	r := NewRing(4)
	c := r.NewCursor()
	done := make(chan PacketInMsg, 1)
	go func() {
		m, ok := c.Next(true)
		if ok {
			done <- m
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	r.Publish(PacketInMsg{Switch: "late"})
	select {
	case m := <-done:
		if m.Switch != "late" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked cursor never woke")
	}
	// Close wakes blocked consumers.
	c2 := r.NewCursor()
	woke := make(chan bool, 1)
	go func() {
		_, ok := c2.Next(true)
		woke <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case ok := <-woke:
		if ok {
			t.Error("closed ring returned a message")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake consumer")
	}
}

func TestRingConcurrentConsumers(t *testing.T) {
	r := NewRing(1024)
	const n = 500
	var wg sync.WaitGroup
	totals := make([]int, 4)
	for i := 0; i < 4; i++ {
		cur := r.NewCursor()
		wg.Add(1)
		go func(i int, cur *Cursor) {
			defer wg.Done()
			for {
				_, ok := cur.Next(true)
				if !ok {
					return
				}
				totals[i]++
			}
		}(i, cur)
	}
	for i := 0; i < n; i++ {
		r.Publish(PacketInMsg{PI: &openflow.PacketIn{}})
	}
	time.Sleep(50 * time.Millisecond)
	r.Close()
	wg.Wait()
	for i, tot := range totals {
		if tot != n {
			t.Errorf("consumer %d got %d/%d", i, tot, n)
		}
	}
}

// TestAllocRingPublishConsumeAllocFree is the dynamic half of the
// zero-copy ring's allocation contract. The static half is yancvet's
// hotalloc analyzer (DESIGN.md §11), which proves the driver's
// publish-side hot path can't allocate; this pin covers the steady-state
// Publish/Next cycle on the current toolchain, where messages move by
// slot assignment only. Keep both checks: the analyzer catches shapes,
// this catches codegen. (The FlowRing drainer is deliberately amortized
// — one claim buffer per ring — so only the packet-in ring pins to 0.)
func TestAllocRingPublishConsumeAllocFree(t *testing.T) {
	r := NewRing(8)
	c := r.NewCursor()
	msg := PacketInMsg{Switch: "sw1", PI: &openflow.PacketIn{}}
	allocs := testing.AllocsPerRun(100, func() {
		r.Publish(msg)
		if _, ok := c.Next(false); !ok {
			t.Fatal("published message not delivered")
		}
	})
	if allocs != 0 {
		t.Errorf("Publish/Next allocated %v times per run; want 0", allocs)
	}
}

func TestRingPending(t *testing.T) {
	r := NewRing(4)
	c := r.NewCursor()
	if c.Pending() != 0 {
		t.Error("fresh cursor pending != 0")
	}
	r.Publish(PacketInMsg{})
	r.Publish(PacketInMsg{})
	if c.Pending() != 2 {
		t.Errorf("pending = %d", c.Pending())
	}
	for i := 0; i < 10; i++ {
		r.Publish(PacketInMsg{})
	}
	if c.Pending() != 4 {
		t.Errorf("lapped pending = %d", c.Pending())
	}
}
