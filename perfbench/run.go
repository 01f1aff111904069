package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"yanc/internal/libyanc"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

const (
	quiesceTimeout = 30 * time.Second // pending installs after the window
	deliverTimeout = 10 * time.Second // probe delivery after the last probe
	maxFailNotes   = 8
)

// outcome is everything one window produced besides the recorder's
// stamps.
type outcome struct {
	t0 int64 // the window opened (ns since epoch)

	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string

	readLat  []int64 // per read: due → ReadFlow returned (ns), -1 when it failed
	genLag   [2][]int64
	gorMax   int
	rounds   []pushRound
	gcCycles uint32
	traced   int   // ops attempted at or after traceAt
	cpuStart int64 // process user+sys CPU time when the window opens...
	cpuEnd   int64 // ...and when it closes

	procBefore, procAfter procSnap
	notifyW               *vfs.Watch
	notifyDone            chan struct{}
	traceOnce             sync.Once
}

type pushRound struct {
	first, last int   // writes[first:last] were pushed in this round
	start, end  int64 // first Submit / last FlowAdd applied
}

func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.notes) < maxFailNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// count records one attempted op due at offset due (ns) in the window.
func (o *outcome) count(pl *plan, due int64) {
	o.mu.Lock()
	o.attempted++
	if due >= pl.traceAt {
		o.traced++
	}
	o.mu.Unlock()
}

// window runs both generators over the plan's window, then waits until
// every op has settled.
func (r *rig) window(pl *plan) *outcome {
	o := &outcome{readLat: make([]int64, len(pl.reads))}
	for i := range o.readLat {
		o.readLat[i] = -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	o.t0 = r.rec.now() + int64(20*time.Millisecond) // both generators start on the same due clock
	if pl.traceAt >= pl.window {
		o.procBefore = r.snapProc()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if pl.workload == "push" {
			r.push(pl, o)
		} else {
			r.openLoop(pl, o, pl.g1, 0)
		}
	}()
	go func() {
		defer wg.Done()
		r.openLoop(pl, o, pl.g2, 1)
	}()
	r.rec.waitUntil(o.t0)
	o.cpuStart = cpuTime()
	r.rec.waitUntil(o.t0 + pl.window)
	o.cpuEnd = cpuTime()
	wg.Wait()
	r.settle(pl, o)
	runtime.ReadMemStats(&ms)
	o.gcCycles = ms.NumGC - gc0
	o.procAfter = r.snapProc()
	if o.notifyW != nil {
		o.notifyW.Close()
		<-o.notifyDone
	}
	return o
}

// traced reports whether an op due at offset due is in the traced half,
// switching tracing on the first time one is.
func (r *rig) traced(pl *plan, o *outcome, due int64) bool {
	if due < pl.traceAt {
		return false
	}
	o.traceOnce.Do(func() { r.startTracing(o) })
	return true
}

// startTracing snapshots the /.proc counters and adds the benchmark's
// own recursive watch, which stamps each traced write when its version
// write is dispatched.
func (r *rig) startTracing(o *outcome) {
	o.procBefore = r.snapProc()
	// One push round dispatches ~25k write events at once; the buffer
	// holds more than two rounds so no stamp is lost to an overflow.
	w, err := r.p.AddWatch("/switches", vfs.OpWrite, vfs.Recursive(), vfs.BufferSize(1<<16))
	if err != nil {
		o.fail("trace watch: %v", err)
	} else {
		o.notifyW = w
		o.notifyDone = make(chan struct{})
		go func() {
			defer close(o.notifyDone)
			for ev := range w.C {
				if vfs.Base(ev.Path) == yancfs.FileVersion {
					r.rec.notified(ev.Path)
				}
			}
		}()
	}
	r.rec.tracing.Store(true)
}

// openLoop runs one open-loop generator: each op starts at its due time
// (or as soon as the previous op returns, if that is later) and its
// latency counts from the due time.
func (r *rig) openLoop(pl *plan, o *outcome, steps []step, g int) {
	rec := r.rec
	lags := make([]int64, 0, len(steps))
	for _, s := range steps {
		due := o.t0 + s.due
		traced := r.traced(pl, o, s.due)
		var (
			path  string
			spec  yancfs.FlowSpec
			frame []byte
		)
		switch s.kind {
		case opCreate, opModify:
			path, spec = flowPath(pl.writes[s.idx].flow), pl.flowSpec(s.idx)
		case opDelete:
			path = flowPath(pl.writes[s.idx].flow)
		case opRead:
			path = flowPath(pl.reads[s.idx])
		case opProbe:
			frame = probeFrame(s.idx)
		}
		rec.waitUntil(due)
		start := rec.now()
		lags = append(lags, start-due)
		o.count(pl, s.due)
		switch s.kind {
		case opCreate, opModify:
			rec.wStart[s.idx].Store(start)
			rec.track(s.idx, traced)
			v, err := yancfs.WriteFlow(r.p, path, spec)
			rec.wRet[s.idx].Store(rec.now())
			rec.wVersion[s.idx].Store(v)
			if err != nil {
				rec.fail(s.idx)
				o.fail("%s %s: %v", s.kind, path, err)
			}
		case opDelete:
			rec.wStart[s.idx].Store(start)
			rec.abort(pl.writes[s.idx].flow)
			err := yancfs.DeleteFlow(r.p, path)
			rec.wRet[s.idx].Store(rec.now())
			if err != nil {
				o.fail("delete %s: %v", path, err)
			}
		case opRead:
			got, err := yancfs.ReadFlow(r.p, path)
			end := rec.now()
			want := pl.flowSpecOf(pl.reads[s.idx])
			switch {
			case err != nil:
				o.fail("read %s: %v", path, err)
			case got.Match.Key() != want.Match.Key() || got.Priority != want.Priority:
				o.fail("read %s: got match %q priority %d, want %q priority %d",
					path, got.Match.Key(), got.Priority, want.Match.Key(), want.Priority)
			default:
				o.readLat[s.idx] = end - due
			}
		case opProbe:
			r.sws[0].Ingress(1, frame)
		}
		if n := runtime.NumGoroutine(); g == 1 && n > o.gorMax {
			o.gorMax = n
		}
	}
	o.genLag[g] = lags
}

// push is the closed-loop ring writer: each round submits pushBatch
// fresh flows as fast as the ring's backpressure allows, reaping
// completions as it goes, waits until the switches applied all of them,
// then deletes them again so the resident table stays the same size.
func (r *rig) push(pl *plan, o *outcome) {
	rec, ring := r.rec, r.ring
	reap := func() {
		for {
			e, ok := ring.Reap(false)
			if !ok {
				return
			}
			if e.Err != nil {
				o.fail("ring %s %s: %v", opName(e.Op), e.Path, e.Err)
			}
			if e.Installed || e.Op != libyanc.OpPut {
				continue
			}
			i := int(e.Tag)
			rec.wCommit[i].Store(rec.now())
			rec.wVersion[i].Store(e.Version)
		}
	}
	o.rounds = nil
	rec.waitUntil(o.t0)
	for first := pl.pushFirst; first+pushBatch <= len(pl.writes); first += pushBatch {
		startOff := rec.now() - o.t0
		if startOff >= pl.window {
			break
		}
		traced := r.traced(pl, o, startOff)
		round := pushRound{first: first, last: first + pushBatch, start: rec.now()}
		for i := round.first; i < round.last; i++ {
			path, spec := flowPath(pl.writes[i].flow), pl.flowSpec(i)
			o.count(pl, startOff)
			start := rec.now()
			rec.wStart[i].Store(start)
			rec.track(i, traced)
			if err := ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: path, Spec: spec, Tag: uint64(i)}); err != nil {
				rec.fail(i)
				o.fail("submit %s: %v", path, err)
			}
			rec.wRet[i].Store(rec.now())
			reap()
		}
		if err := r.waitFor("a push round to install", settleTimeout, func() bool {
			reap()
			return rec.outstanding() == 0
		}); err != nil {
			o.fail("push round: %v", err)
			return
		}
		for i := round.first; i < round.last; i++ {
			if at := rec.wApply[i].Load(); at > round.end {
				round.end = at
			}
		}
		o.rounds = append(o.rounds, round)

		// Remove the round's flows; not timed, but checked.
		dels := rec.dels.Load()
		for i := round.first; i < round.last; i++ {
			o.count(pl, startOff)
			if err := ring.Submit(libyanc.SQE{Op: libyanc.OpDelete, Path: flowPath(pl.writes[i].flow), Tag: uint64(i)}); err != nil {
				o.fail("submit delete: %v", err)
			}
			reap()
		}
		if err := r.waitFor("a push round to be removed", settleTimeout, func() bool {
			reap()
			return rec.dels.Load()-dels >= pushBatch
		}); err != nil {
			o.fail("push round delete: %v", err)
			return
		}
	}
	if rec.now()-o.t0 < pl.window {
		fmt.Printf("note: push ran out of its %d flow slots before the window closed\n", len(pl.writes)-pl.pushFirst)
	}
	if err := ring.Flush(); err != nil {
		o.fail("ring flush: %v", err)
	}
	reap()
}

func opName(k libyanc.OpKind) string {
	if k == libyanc.OpDelete {
		return "delete"
	}
	return "put"
}

// settle waits until every write is resolved and every probe is
// delivered and installed, or the deadlines pass; what is still
// outstanding then counts as failed.
func (r *rig) settle(pl *plan, o *outcome) {
	rec := r.rec
	if err := r.waitFor("installs to settle", quiesceTimeout, func() bool { return rec.outstanding() == 0 }); err != nil {
		o.fail("%d writes never reached their switch: %v", rec.outstanding(), err)
	}
	probeDone := func(k int) bool {
		if rec.pDeliver[k].Load() == 0 {
			return false
		}
		for s := range rec.pInstall {
			if rec.pInstall[s][k].Load() == 0 {
				return false
			}
		}
		return true
	}
	_ = r.waitFor("probes to be delivered", deliverTimeout, func() bool {
		for k := range pl.probes {
			if !probeDone(k) {
				return false
			}
		}
		return true
	})
	for k := range pl.probes {
		if !probeDone(k) {
			o.fail("probe %d (tcp %d): delivered=%v installed=%v/%v", k, probePortBase+k,
				rec.pDeliver[k].Load() != 0, rec.pInstall[0][k].Load() != 0, rec.pInstall[1][k].Load() != 0)
		}
	}
}

// cpuTime is the process's user+sys CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
