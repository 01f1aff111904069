package main

import (
	"fmt"
	"sort"
	"strings"
)

// procSnap is one reading of the /.proc counters the per-layer metrics
// are made of.
type procSnap map[string]float64

// snapProc reads the counters through ordinary file I/O, as an operator
// would.
func (r *rig) snapProc() procSnap {
	s := procSnap{}
	s["vfs.ops"] = r.procCounters("/.proc/vfs/ops")["total"]
	c := r.procCounters("/.proc/vfs/contention")
	s["vfs.watch_events"] = c["watch_dispatch_queued"]
	s["vfs.watch_batches"] = c["watch_dispatch_batches"]
	s["vfs.contended"] = c["contended_total"]
	s["vfs.lockfree"] = r.counter("/.proc/vfs/resolve_lockfree")
	s["vfs.fallback"] = r.counter("/.proc/vfs/resolve_fallback")
	s["vfs.overflows"] = r.watchOverflows()
	s["events.drops"] = r.procCounters("/.proc/events/stats")["drops"]
	for i := range r.sws {
		dir := fmt.Sprintf("/.proc/driver/sw%d/", i+1)
		s["driver.tx"] += r.procCounters(dir + "tx_rx")["tx"]
		s["driver.shed"] += r.procCounters(dir + "pktin")["shed"]
	}
	ring := r.procCounters("/.proc/libyanc/ring")
	s["libyanc.completed"] = ring["completed"]
	s["libyanc.stalls"] = ring["stalls"]
	s["libyanc.drains"] = r.procCounters("/.proc/libyanc/batch")["drains"]
	s["rec.flowadds"] = float64(r.rec.flowAdds.Load() + r.rec.probeAdds.Load())
	return s
}

func (r *rig) counter(path string) float64 {
	s, err := r.p.ReadString(path)
	if err != nil {
		return 0
	}
	var v float64
	if _, err := fmt.Sscan(strings.TrimSpace(s), &v); err != nil {
		return 0
	}
	return v
}

// watchOverflows sums the overflow column of /.proc/watch/queues, less
// the router's own subscription watch, which nobody reads because the
// benchmark drives the router's Drain itself.
func (r *rig) watchOverflows() float64 {
	s, err := r.p.ReadString("/.proc/watch/queues")
	if err != nil {
		return 0
	}
	total := 0.0
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		var id uint64
		var ov float64
		if _, err := fmt.Sscan(f[0], &id); err != nil || id == r.idleWatch {
			continue
		}
		if _, err := fmt.Sscan(f[4], &ov); err == nil {
			total += ov
		}
	}
	return total
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics and the human-readable lines printed before
// the result.
type report struct {
	metrics map[string]metric
	lines   []string
	errs    []string
}

func (rp *report) set(name string, v float64, unit string) {
	rp.metrics[name] = metric{Value: v, Unit: unit}
}

func (rp *report) dist(d *dist, name, unit string) {
	rp.lines = append(rp.lines, d.summary(name, unit))
	if err := d.check(); err != nil {
		rp.errs = append(rp.errs, name+": "+err.Error())
	}
}

const (
	ms = 1e6
	us = 1e3
)

// e2e holds the end-to-end samples of the ops due in one span of the
// window.
type e2e struct {
	install, read, miss dist
	fps                 float64 // flows installed per second
}

// endToEnd collects the end-to-end samples of the ops whose due time
// falls in [from, to) of the window.
func endToEnd(pl *plan, rec *recorder, o *outcome, from, to int64) *e2e {
	e := &e2e{}
	install, read, miss := &e.install, &e.read, &e.miss
	in := func(due int64) bool { return due >= from && due < to }
	lastApply, installs := int64(0), 0
	switch pl.workload {
	case "churn":
		for _, s := range pl.g1 {
			if (s.kind == opCreate || s.kind == opModify) && in(s.due) && rec.wState[s.idx].Load() == wResolved {
				at := rec.wApply[s.idx].Load()
				install.add(float64(at-(o.t0+s.due)) / ms)
				installs++
				lastApply = max(lastApply, at)
			}
		}
		if lastApply > 0 {
			e.fps = float64(installs) / (float64(lastApply-(o.t0+from)) / 1e9)
		}
	case "push":
		var flows, busy int64
		for _, rd := range o.rounds {
			if !in(rd.start - o.t0) {
				continue
			}
			for i := rd.first; i < rd.last; i++ {
				if rec.wState[i].Load() == wResolved {
					install.add(float64(rec.wApply[i].Load()-rec.wStart[i].Load()) / ms)
				}
			}
			flows += int64(rd.last - rd.first)
			busy += rd.end - rd.start
		}
		if busy > 0 {
			e.fps = float64(flows) / (float64(busy) / 1e9)
		}
	case "reactive":
		for k, due := range pl.probes {
			a, b := rec.pInstall[0][k].Load(), rec.pInstall[1][k].Load()
			if !in(due) || a == 0 || b == 0 {
				continue
			}
			at := max(a, b)
			install.add(float64(at-(o.t0+due)) / ms)
			installs += 2
			lastApply = max(lastApply, at)
		}
		if lastApply > 0 {
			e.fps = float64(installs) / (float64(lastApply-(o.t0+from)) / 1e9)
		}
	}
	for i, due := range pl.readDue {
		if in(due) && o.readLat[i] >= 0 {
			read.add(float64(o.readLat[i]) / us)
		}
	}
	for k, due := range pl.probes {
		if at := rec.pDeliver[k].Load(); in(due) && at != 0 {
			miss.add(float64(at-(o.t0+due)) / ms)
		}
	}
	return e
}

// chain turns one op's boundary stamps into stage durations. A stamp
// of 0 (not seen) takes the next later stamp, and each boundary is
// clamped into [previous boundary, end]: stamps taken on different
// goroutines can land out of order by a scheduling delay. The stages
// then telescope, so they sum to the end-to-end time exactly. It
// reports whether any stamp had to be moved.
func chain(b []int64) (stages []int64, moved bool) {
	n := len(b)
	c := append([]int64(nil), b...)
	for i := n - 2; i >= 1; i-- {
		if c[i] == 0 {
			c[i] = c[i+1]
			moved = true
		}
	}
	for i := 1; i < n-1; i++ {
		if c[i] < c[i-1] {
			c[i], moved = c[i-1], true
		}
		if c[i] > c[n-1] {
			c[i], moved = c[n-1], true
		}
	}
	stages = make([]int64, n-1)
	for i := range stages {
		stages[i] = c[i+1] - c[i]
	}
	return stages, moved
}

// stageTable accumulates the stages of one op class.
type stageTable struct {
	name   string
	stages []string
	d      []dist
	sum    []float64
	total  float64
	ops    int
	moved  int
	badSum int
}

func newStageTable(name string, stages ...string) *stageTable {
	return &stageTable{name: name, stages: stages, d: make([]dist, len(stages)), sum: make([]float64, len(stages))}
}

// add records one op's boundaries (first = start of the end-to-end
// time, last = its end) and checks that the stages sum to it.
func (t *stageTable) add(b []int64) []int64 {
	st, moved := chain(b)
	var sum int64
	for i, v := range st {
		t.d[i].add(float64(v) / ms)
		t.sum[i] += float64(v)
		sum += v
	}
	e2e := b[len(b)-1] - b[0]
	if sum != e2e {
		t.badSum++
	}
	t.total += float64(e2e)
	t.ops++
	if moved {
		t.moved++
	}
	return st
}

func (t *stageTable) render() []string {
	if t.ops == 0 {
		return []string{fmt.Sprintf("stages %s: no traced ops", t.name)}
	}
	out := []string{fmt.Sprintf("stages %s: %d traced ops, %d with reordered or missing stamps, %d whose stages do not sum to end-to-end",
		t.name, t.ops, t.moved, t.badSum)}
	for i, s := range t.stages {
		share := 0.0
		if t.total > 0 {
			share = t.sum[i] / t.total
		}
		out = append(out, fmt.Sprintf("  %-26s p50=%-10.4g p99=%-10.4g share=%5.1f%% ms", s, t.d[i].quantile(0.5), t.d[i].quantile(0.99), 100*share))
	}
	return out
}

// perLayer fills the traced metrics: stage latencies from the stamps
// of the ops due in the traced half, counters from /.proc over the
// same half.
func perLayer(rp *report, r *rig, pl *plan, o *outcome) {
	rec := r.rec
	var (
		write, notify, wire, apply, submit, commit dist
		missPktin, pktinApp, appDeliv, drain       dist
	)
	churn := newStageTable("churn write (due→applied)", "generator lag", "yancfs write call", "vfs commit→notify", "driver notify→wire", "switchsim wire→apply")
	push := newStageTable("push (Submit→applied)", "libyanc Submit wait", "libyanc commit→notify", "driver notify→wire", "switchsim wire→apply")
	probe := newStageTable("new flow (due→at h2)", "driver miss→packet-in", "packet-in→router wake", "router Drain", "router→delivery")

	// Wire stamps are keyed by (flow, version); join them to the writes.
	rec.mu.Lock()
	for i := range pl.writes {
		if v := rec.wVersion[i].Load(); v != 0 {
			if at, ok := rec.wireAt[[2]uint64{uint64(pl.writes[i].flow), v}]; ok {
				rec.wWire[i].Store(at)
			}
		}
	}
	drains := append([][2]int64(nil), rec.drains...)
	rec.mu.Unlock()
	sort.Slice(drains, func(i, j int) bool { return drains[i][0] < drains[j][0] })
	for _, dr := range drains {
		drain.add(float64(dr[1]-dr[0]) / ms)
	}

	for _, s := range pl.g1 {
		if s.due < pl.traceAt || s.kind == opRead || s.kind == opProbe {
			continue
		}
		i := s.idx
		start, ret := rec.wStart[i].Load(), rec.wRet[i].Load()
		write.add(float64(ret-start) / us)
		if s.kind == opDelete || rec.wState[i].Load() != wResolved {
			continue
		}
		st := churn.add([]int64{o.t0 + s.due, start, ret, rec.wNotify[i].Load(), rec.wWire[i].Load(), rec.wApply[i].Load()})
		notify.add(float64(st[2]) / ms)
		wire.add(float64(st[2]+st[3]) / ms)
		apply.add(float64(st[4]) / ms)
	}
	for _, rd := range o.rounds {
		if rd.start-o.t0 < pl.traceAt {
			continue
		}
		for i := rd.first; i < rd.last; i++ {
			start, ret := rec.wStart[i].Load(), rec.wRet[i].Load()
			submit.add(float64(ret-start) / us)
			if c := rec.wCommit[i].Load(); c != 0 {
				commit.add(float64(c-start) / ms)
			}
			if rec.wState[i].Load() != wResolved {
				continue
			}
			st := push.add([]int64{start, ret, rec.wNotify[i].Load(), rec.wWire[i].Load(), rec.wApply[i].Load()})
			// A ring write has no call that returns at commit; its
			// commit point is the version write reaching watchers.
			wire.add(float64(st[2]) / ms)
			apply.add(float64(st[3]) / ms)
		}
	}
	tracedProbes, probeInstalls := 0, 0
	for k, due := range pl.probes {
		if due < pl.traceAt {
			continue
		}
		tracedProbes++
		for s := range rec.pInstall {
			if rec.pInstall[s][k].Load() != 0 {
				probeInstalls++
			}
		}
		deliver, pktin := rec.pDeliver[k].Load(), rec.pPktin[k].Load()
		if deliver == 0 {
			continue
		}
		// The drain that released the frame: the last wake between the
		// first packet-in and the delivery.
		var wake, done int64
		j := sort.Search(len(drains), func(i int) bool { return drains[i][0] > deliver })
		if j > 0 && drains[j-1][0] >= pktin && pktin != 0 {
			wake, done = drains[j-1][0], drains[j-1][1]
		}
		st := probe.add([]int64{o.t0 + due, pktin, wake, done, deliver})
		missPktin.add(float64(st[0]) / ms)
		pktinApp.add(float64(st[1]) / ms)
		appDeliv.add(float64(st[3]) / ms)
	}
	for _, t := range []*stageTable{churn, push, probe} {
		rp.lines = append(rp.lines, t.render()...)
		if t.badSum > 0 {
			rp.errs = append(rp.errs, fmt.Sprintf("%s: %d ops whose stages do not sum to end-to-end", t.name, t.badSum))
		}
	}

	ops := float64(max(o.traced, 1))
	before, after := o.procBefore, o.procAfter
	delta := func(k string) float64 { return after[k] - before[k] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	q := func(d *dist, name, unit string, qs ...float64) {
		rp.dist(d, name, unit)
		for _, x := range qs {
			rp.set(fmt.Sprintf("%s_p%02.0f", name, 100*x), d.quantile(x), unit)
		}
	}
	q(&write, "yancfs.write_us", "us", 0.5, 0.99)
	rp.set("vfs.ops_per_op", delta("vfs.ops")/ops, "ops/op")
	rp.set("vfs.watch_events_per_op", delta("vfs.watch_events")/ops, "events/op")
	rp.set("vfs.watch_batch_avg", ratio(delta("vfs.watch_events"), delta("vfs.watch_batches")), "events")
	rp.set("vfs.contended_per_op", delta("vfs.contended")/ops, "count/op")
	rp.set("vfs.resolve_fallback_share", ratio(delta("vfs.fallback"), delta("vfs.fallback")+delta("vfs.lockfree")), "share")
	rp.set("vfs.watch_overflows", delta("vfs.overflows"), "count")
	q(&notify, "vfs.commit_to_notify_ms", "ms", 0.5, 0.99)
	q(&submit, "libyanc.submit_wait_us", "us", 0.99)
	q(&commit, "libyanc.commit_ms", "ms", 0.5, 0.99)
	rp.set("libyanc.batch_avg", ratio(delta("libyanc.completed"), delta("libyanc.drains")), "entries")
	rp.set("libyanc.stalls", delta("libyanc.stalls"), "count")
	q(&wire, "driver.commit_to_wire_ms", "ms", 0.5, 0.99)
	rp.set("driver.tx_msgs_per_op", delta("driver.tx")/ops, "msgs/op")
	q(&missPktin, "driver.miss_to_pktin_ms", "ms", 0.5, 0.99)
	q(&pktinApp, "driver.pktin_to_app_ms", "ms", 0.5, 0.99)
	q(&appDeliv, "driver.app_to_delivery_ms", "ms", 0.5, 0.99)
	rp.set("driver.pktin_shed", delta("driver.shed"), "count")
	q(&apply, "switchsim.wire_to_apply_ms", "ms", 0.5, 0.99)
	resolved := 0
	for _, s := range pl.g1 {
		if s.due >= pl.traceAt && (s.kind == opCreate || s.kind == opModify) && rec.wState[s.idx].Load() == wResolved {
			resolved++
		}
	}
	for _, rd := range o.rounds {
		if rd.start-o.t0 >= pl.traceAt {
			resolved += rd.last - rd.first
		}
	}
	rp.set("switchsim.flowadds_per_resolved", ratio(delta("rec.flowadds"), float64(resolved+probeInstalls)), "ratio")
	q(&drain, "apps.router_drain_ms", "ms", 0.5, 0.99)
	rp.set("apps.pktin_per_flow", ratio(float64(rec.pktins.Load()), float64(tracedProbes)), "ratio")
	rp.set("yancfs.event_drops", delta("events.drops"), "count")
}
