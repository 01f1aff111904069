package main

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"yanc/internal/openflow"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newPlan(w, 7, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(w, 7, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
		c, err := newPlan(w, 8, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.g2, c.g2) || reflect.DeepEqual(a.probes, c.probes) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w)
		}
	}
}

func TestChurnPlanKeepsPinnedFlowsAndRatio(t *testing.T) {
	pl, err := newPlan("churn", 3, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	var n [3]int
	live := map[int]bool{}
	for f := 0; f < preloadFlows; f++ {
		live[f] = true
	}
	for _, s := range pl.g1 {
		w := pl.writes[s.idx]
		n[w.kind]++
		switch w.kind {
		case opCreate:
			if live[w.flow] {
				t.Fatalf("create of live flow %d", w.flow)
			}
			live[w.flow] = true
		case opModify:
			if !live[w.flow] {
				t.Fatalf("modify of dead flow %d", w.flow)
			}
		case opDelete:
			if w.flow < pinnedFlows || !live[w.flow] {
				t.Fatalf("delete of pinned or dead flow %d", w.flow)
			}
			delete(live, w.flow)
		}
	}
	total := float64(n[0] + n[1] + n[2])
	if math.Abs(float64(n[0])/total-0.5) > 0.05 || math.Abs(float64(n[1])/total-0.25) > 0.05 {
		t.Errorf("create/modify/delete = %v, want about 2:1:1", n)
	}
	for _, f := range pl.reads {
		if f >= pinnedFlows {
			t.Fatalf("read of unpinned flow %d", f)
		}
	}
}

// referenceQuantile is the nearest-rank definition read literally: the
// smallest sample x such that at least q·n samples are <= x.
func referenceQuantile(xs []float64, q float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	need := q * float64(len(ys))
	for _, y := range ys {
		c := 0
		for _, z := range ys {
			if z <= y {
				c++
			}
		}
		if float64(c) >= need {
			return y
		}
	}
	return ys[len(ys)-1]
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		var d dist
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.ExpFloat64() * 100) // ties on purpose
			d.add(xs[i])
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := d.quantile(q), referenceQuantile(xs, q); got != want {
				t.Fatalf("n=%d q=%v: got %v want %v", n, q, got, want)
			}
		}
		if err := d.check(); err != nil {
			t.Fatal(err)
		}
		if d.quantile(0.99) > d.max() {
			t.Fatal("p99 above the observed max")
		}
	}
	var empty dist
	if empty.quantile(0.5) != 0 || empty.check() != nil {
		t.Fatal("empty distribution")
	}
}

func TestChainSumsToEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		b := make([]int64, 2+rng.Intn(5))
		b[0] = rng.Int63n(1000)
		b[len(b)-1] = b[0] + rng.Int63n(1000)
		for i := 1; i < len(b)-1; i++ {
			if rng.Intn(4) > 0 { // some stamps missing, some out of order
				b[i] = rng.Int63n(2500)
			}
		}
		st, _ := chain(b)
		var sum int64
		for _, v := range st {
			if v < 0 {
				t.Fatalf("negative stage in %v: %v", b, st)
			}
			sum += v
		}
		if sum != b[len(b)-1]-b[0] {
			t.Fatalf("stages %v of %v sum to %d, want %d", st, b, sum, b[len(b)-1]-b[0])
		}
	}
	if st, moved := chain([]int64{10, 12, 15, 20}); moved || !reflect.DeepEqual(st, []int64{2, 3, 5}) {
		t.Fatalf("ordered stamps: got %v moved=%v", st, moved)
	}
}

// smallPlan is a plan with a short resident table, so a real rig sets up
// quickly.
func smallPlan(flows int) *plan {
	pl := &plan{workload: "churn", window: 1e9, traceAt: 1e9}
	for f := 0; f < flows; f++ {
		pl.writes = append(pl.writes, wop{kind: opCreate, flow: f})
	}
	pl.preload = flows
	return pl
}

func TestOracleFailsWhenAFlowIsDropped(t *testing.T) {
	rg, err := newRig(newRecorder(smallPlan(200)), false)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.close()
	problems, resident := rg.converge()
	if len(problems) != 0 {
		t.Fatalf("fresh rig: %v", problems)
	}
	if resident < 200 {
		t.Fatalf("resident %d, want at least the 200 preloaded flows", resident)
	}

	committed, err := rg.ctrl.FS().SnapshotFlows("/switches/sw1")
	if err != nil {
		t.Fatal(err)
	}
	table := rg.sws[0].FlowStats(openflow.Match{})
	if got := compareTable("sw1", committed, table); len(got) != 0 {
		t.Fatalf("intact table: %v", got)
	}
	dropped := compareTable("sw1", committed, table[1:])
	if len(dropped) != 1 || !strings.Contains(dropped[0], "missing from the table") {
		t.Fatalf("dropped flow: got %v", dropped)
	}
	stale := append([]openflow.FlowStats(nil), table...)
	stale[0].Cookie += 1000
	if got := compareTable("sw1", committed, stale); len(got) != 1 || !strings.Contains(got[0], "stale cookie") {
		t.Fatalf("stale flow: got %v", got)
	}
	if got := compareTable("sw1", committed[1:], table); len(got) != 1 || !strings.Contains(got[0], "no committed flow") {
		t.Fatalf("extra flow: got %v", got)
	}
}
