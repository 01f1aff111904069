package main

import (
	"fmt"
	"math/rand"
	"sort"

	"yanc/internal/benchutil"
	"yanc/internal/yancfs"
)

// Workload shapes. Every workload runs on the same rig (two switches, a
// resident table, topology discovery, the router) under the same
// background of monitor reads and new TCP flows; churn and push add
// their writes on top.
const (
	preloadFlows = 10000 // resident table at the start of the window, over both switches
	pinnedFlows  = 5000  // preload[:pinnedFlows] is never deleted: the monitor reads it

	churnRate = 200.0 // churn: create/modify/delete ops per second (2:1:1)
	readRate  = 100.0 // every workload: monitor ReadFlow calls per second
	missRate  = 10.0  // every workload: new TCP flows per second through the router

	pushBatch     = 1000  // push: fresh flows per closed-loop round
	pushCapPerSec = 10000 // push: flow slots reserved per second of window
	probePortBase = 1024  // TCP source port of probe 0; probes use distinct ports
	probeDstPort  = 80
	switchCount   = 2
	setupRepeats  = 3 // set-ups per run; setup_s is their median
)

type opKind uint8

const (
	opCreate opKind = iota
	opModify
	opDelete
	opRead
	opProbe
)

func (k opKind) String() string {
	return [...]string{"create", "modify", "delete", "read", "probe"}[k]
}

// wop is one flow write. Its cookie, which the switch echoes back with
// the FlowAdd it applies, is its index in plan.writes plus one.
type wop struct {
	due  int64 // ns after the window opens; 0 for set-up and push writes
	kind opKind
	flow int
	tos  uint8 // modify: the rewritten set_nw_tos value
}

// step is one scheduled operation of an open-loop generator.
type step struct {
	due  int64 // ns after the window opens
	kind opKind
	idx  int // index into plan.writes, plan.reads or plan.probes
}

// plan is the complete input of one run, a pure function of the
// workload, the seed and the window length.
type plan struct {
	workload string
	window   int64 // ns
	traceAt  int64 // ns; ops due at or after it are traced (trace mode)

	writes  []wop   // preload first, then churn ops or push slots
	preload int     // writes[:preload] is the resident table
	reads   []int   // flow index read by each monitor read
	readDue []int64 // due time of each read
	probes  []int64 // due time of each probe (new TCP flow h1→h2)

	g1 []step // writer (churn) or probe sender (reactive); push is closed loop
	g2 []step // monitor reads, plus background probes on churn and push

	pushFirst int // push: writes[pushFirst:] are the closed-loop slots
}

var workloads = []string{"churn", "push", "reactive"}

// newPlan draws the run's op streams from the seed. Each stream has its
// own generator so that changing one rate leaves the others' streams
// unchanged.
func newPlan(workload string, seed int64, seconds int, trace bool) (*plan, error) {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("seconds must be at least 1, got %d", seconds)
	}
	window := int64(seconds) * 1e9
	pl := &plan{workload: workload, window: window, traceAt: window}
	if trace {
		pl.traceAt = window / 2
	}
	for f := 0; f < preloadFlows; f++ {
		pl.writes = append(pl.writes, wop{kind: opCreate, flow: f})
	}
	pl.preload = len(pl.writes)

	sub := func(stream int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + stream)) }

	// Monitor reads of pinned flows: every workload.
	rng := sub(1)
	for _, due := range poisson(rng, readRate, window) {
		pl.reads = append(pl.reads, rng.Intn(pinnedFlows))
		pl.readDue = append(pl.readDue, due)
		pl.g2 = append(pl.g2, step{due: due, kind: opRead, idx: len(pl.reads) - 1})
	}

	// New TCP flows through the router: every workload. On reactive they
	// are the only writes, so they get the first generator to themselves.
	for _, due := range poisson(sub(2), missRate, window) {
		pl.probes = append(pl.probes, due)
		s := step{due: due, kind: opProbe, idx: len(pl.probes) - 1}
		if workload == "reactive" {
			pl.g1 = append(pl.g1, s)
		} else {
			pl.g2 = append(pl.g2, s)
		}
	}
	sort.SliceStable(pl.g2, func(i, j int) bool { return pl.g2[i].due < pl.g2[j].due })

	switch workload {
	case "churn":
		pl.churn(sub(3))
	case "push":
		pl.pushFirst = len(pl.writes)
		for f := 0; f < seconds*pushCapPerSec; f++ {
			pl.writes = append(pl.writes, wop{kind: opCreate, flow: preloadFlows + f})
		}
	}
	return pl, nil
}

// churn draws the 2:1:1 create/modify/delete stream. Creates make fresh
// flows; modifies rewrite any live flow in place (same match and
// priority, new actions); deletes remove a live unpinned flow.
func (pl *plan) churn(rng *rand.Rand) {
	deletable := make([]int, 0, preloadFlows)
	for f := pinnedFlows; f < preloadFlows; f++ {
		deletable = append(deletable, f)
	}
	next := preloadFlows
	for _, due := range poisson(rng, churnRate, pl.window) {
		w := wop{due: due}
		r := rng.Intn(4)
		switch {
		case r < 2 || len(deletable) == 0:
			w.kind, w.flow = opCreate, next
			deletable = append(deletable, next)
			next++
		case r == 2:
			w.kind = opModify
			u := rng.Intn(pinnedFlows + len(deletable))
			if u < pinnedFlows {
				w.flow = u
			} else {
				w.flow = deletable[u-pinnedFlows]
			}
			w.tos = uint8(4 * (1 + rng.Intn(63)))
		default:
			j := rng.Intn(len(deletable))
			w.kind, w.flow = opDelete, deletable[j]
			deletable[j] = deletable[len(deletable)-1]
			deletable = deletable[:len(deletable)-1]
		}
		pl.writes = append(pl.writes, w)
		pl.g1 = append(pl.g1, step{due: due, kind: w.kind, idx: len(pl.writes) - 1})
	}
}

// poisson returns the arrival times of a Poisson process of the given
// rate (per second) inside [0, window) ns.
func poisson(rng *rand.Rand, rate float64, window int64) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if int64(t) >= window {
			return out
		}
		out = append(out, int64(t))
	}
}

// flowSpecOf is a flow's content as first written: what a read must
// find, up to the actions and cookie a modify rewrites.
func (pl *plan) flowSpecOf(flow int) yancfs.FlowSpec {
	return benchutil.SampleFlowSpec(flow)
}

func flowPath(flow int) string {
	return fmt.Sprintf("/switches/sw%d/flows/f%07d", 1+flow%switchCount, flow)
}

// flowSpec is the content of write i: the flow's fixed match and
// priority, the write's cookie, and for a modify its rewritten action.
func (pl *plan) flowSpec(i int) yancfs.FlowSpec {
	w := pl.writes[i]
	spec := pl.flowSpecOf(w.flow)
	spec.IdleTimeout = 0
	spec.Cookie = uint64(i) + 1
	if w.kind == opModify {
		spec.Actions[0].TOS = w.tos
	}
	return spec
}
