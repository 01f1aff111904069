// Command perfbench is the controller benchmark. It builds the
// controller the way yancd runs it (yanc.NewController serving a
// loopback TCP listener, so the driver's epoll path is measured),
// attaches two simulated switches over that socket, offers one
// workload's traffic for a fixed window, checks every output, and prints
// every metric by name with its unit. Traffic crosses the host's
// loopback interface, not a real link.
//
//	perfbench --workload churn --seed 1 --seconds 20 --trace 0
//
// Every workload runs on the same rig: h1–s1–s2–h2, topod discovery,
// the hosts registered, the router subscribed, and a resident table of
// 10k flows preloaded through a libyanc flow ring. All three offer the
// same background: an open-loop monitor doing 100 yancfs.ReadFlow
// calls/s on resident flows, and 10 new minimum-size TCP flows/s from h1
// to h2, each a table miss the router turns into a path and a
// packet-out. On top of that:
//
//   - churn: open loop, 200 ops/s of 2:1:1 create/modify/delete through
//     yancfs.WriteFlow/DeleteFlow (the paper's file interface).
//   - push: closed loop, rounds of 1000 fresh flows submitted to a
//     libyanc.FlowRing as fast as backpressure allows, each round timed
//     from the first Submit to the last FlowAdd applied, then removed.
//   - reactive: nothing; the new TCP flows are the only writes.
//
// The rates keep a 2-core machine well short of saturation. At 1000
// churn ops/s, or 50 new flows/s, latency rose through the window (a
// growing backlog); at 25 new flows/s the reactive p50 still spread by a
// third across seeds, because every router flow shares one priority and
// the simulated switch compares same-priority matches by formatting
// them, so each new flow costs more than the last. Open-loop latency counts from each op's due time.
// Every quantile is exact: nearest rank over all samples of the window.
//
// With --trace 1 the second half of the window is traced: the benchmark
// stamps each op at every layer boundary it can see from outside (hooks
// and its own watches), prints each stage's p50/p99 and share of the
// end-to-end time, checks that the stages of each op sum to its
// end-to-end time, and reports the per-layer metrics; the tracing
// overhead is the traced half's headline median minus the untraced
// half's. The p99 tails of the untraced half are reported there too:
// on a 2-core machine they do not repeat within the bounds the
// end-to-end metrics are held to.
//
// The first line of standard output is the environment header, the last
// line the result: {"correct", "attempted", "failed", "metrics"}. The
// exit code is non-zero when any check failed.
//
//	perfbench -compare a.out b.out
//
// compares two saved outputs metric by metric, and refuses when they
// were taken on different core counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// lagLimitMS is the generator lag p99 above which a run is flagged: the
// offered schedule was not kept.
const lagLimitMS = 50

type envHeader struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "churn", "churn, push or reactive")
	seed := flag.Int64("seed", 1, "seed of the op streams")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 traces the second half of the window and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded in the environment header")
	compare := flag.Bool("compare", false, "compare two saved outputs given as arguments")
	flag.Parse()
	if *compare {
		os.Exit(compareOutputs(flag.Args()))
	}
	env := envHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: *commit, Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	hdr, _ := json.Marshal(map[string]envHeader{"env": env})
	fmt.Println(string(hdr))
	res, err := run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(env envHeader) (*result, error) {
	pl, err := newPlan(env.Workload, env.Seed, env.Seconds, env.Trace)
	if err != nil {
		return nil, err
	}
	// Set up several times and keep the last rig; set-up time is the
	// median.
	var (
		rg     *rig
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if rg != nil {
			rg.close()
		}
		rec := newRecorder(pl)
		start := time.Now()
		rg, err = newRig(rec, env.Workload == "push")
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rg.close()
	if rg.ring != nil {
		if err := installRingProc(rg); err != nil {
			return nil, err
		}
	}

	o := rg.window(pl)
	problems, resident := rg.converge()
	for _, p := range problems {
		o.fail("oracle: %s", p)
	}
	if rg.rec.dupAdds.Load() > 0 {
		fmt.Printf("note: %d FlowAdds re-applied a write already resolved (resync)\n", rg.rec.dupAdds.Load())
	}
	heapPerFlow := (float64(liveHeap()) - float64(rg.heapBase)) / float64(max(resident, 1))

	rp := &report{metrics: map[string]metric{}}
	to := pl.window
	if env.Trace {
		to = pl.traceAt
	}
	whole := endToEnd(pl, rg.rec, o, 0, to)
	rp.dist(&whole.install, "install_ms", "ms")
	rp.dist(&whole.read, "read_us", "us")
	rp.dist(&whole.miss, "miss_ms", "ms")
	lags := dist{}
	for _, g := range o.genLag {
		for _, l := range g {
			lags.add(float64(l) / ms)
		}
	}
	rp.dist(&lags, "bench.gen_lag_ms", "ms")
	if lag := lags.quantile(0.99); lag > lagLimitMS {
		rp.lines = append(rp.lines, fmt.Sprintf("WARNING: the generator fell behind (lag p99 %.1f ms): the offered rate was not met", lag))
	}
	attempted := max(o.attempted, 1)
	failShare := float64(o.failed) / float64(attempted)
	if !env.Trace {
		backlogRows(rp, pl, rg.rec, o)
		rp.set("setup_s", median(setups), "s")
		rp.set("install_p50_ms", whole.install.quantile(0.5), "ms")
		rp.set("read_p50_us", whole.read.quantile(0.5), "us")
		rp.set("miss_p50_ms", whole.miss.quantile(0.5), "ms")
		rp.set("push_fps", whole.fps, "flows/s")
		rp.set("cpu_us_per_op", float64(o.cpuEnd-o.cpuStart)/us/float64(attempted), "us/op")
		rp.set("heap_bytes_per_flow", heapPerFlow, "B/flow")
	} else {
		// Tails, from the untraced half; not bounded (see BENCHMARK.json).
		rp.set("install_p99_ms", whole.install.quantile(0.99), "ms")
		rp.set("read_p99_us", whole.read.quantile(0.99), "us")
		rp.set("miss_p99_ms", whole.miss.quantile(0.99), "ms")
		perLayer(rp, rg, pl, o)
		rp.set("fail_share", failShare, "share")
		rp.set("go.gc_cycles_per_kop", float64(o.gcCycles)*1000/float64(attempted), "cycles/kop")
		rp.set("go.goroutines_max", float64(o.gorMax), "count")
		rp.set("bench.gen_lag_p99_ms", lags.quantile(0.99), "ms")
		traced := endToEnd(pl, rg.rec, o, pl.traceAt, pl.window)
		head, tHead, name := &whole.install, &traced.install, "install p50"
		if env.Workload == "reactive" {
			head, tHead, name = &whole.miss, &traced.miss, "miss p50"
		}
		overhead := tHead.quantile(0.5) - head.quantile(0.5)
		rp.set("trace.overhead_ms", overhead, "ms")
		rp.lines = append(rp.lines, fmt.Sprintf("tracing overhead: %s traced %.4g ms - untraced %.4g ms = %+.4g ms",
			name, tHead.quantile(0.5), head.quantile(0.5), overhead))
	}
	rp.lines = append(rp.lines, fmt.Sprintf("setup_s runs %v; resident flows %d; ops attempted %d, failed %d (share %.4g); duplicate deliveries at h2 %d",
		setups, resident, o.attempted, o.failed, failShare, rg.rec.dupDeliveries.Load()))
	for _, n := range o.notes {
		rp.lines = append(rp.lines, "FAIL: "+n)
	}
	for _, e := range rp.errs {
		rp.lines = append(rp.lines, "FAIL: "+e)
	}
	for _, l := range rp.lines {
		fmt.Println(l)
	}
	return &result{
		Correct:   o.failed == 0 && len(rp.errs) == 0,
		Attempted: attempted,
		Failed:    o.failed + len(rp.errs),
		Metrics:   rp.metrics,
	}, nil
}

// backlogRows prints each latency p50 per fifth of the window: a row
// that keeps rising shows a backlog that grows.
func backlogRows(rp *report, pl *plan, rec *recorder, o *outcome) {
	rows := [3]string{"install_ms p50 by fifth:", "read_us p50 by fifth:", "miss_ms p50 by fifth:"}
	for k := int64(0); k < 5; k++ {
		e := endToEnd(pl, rec, o, pl.window*k/5, pl.window*(k+1)/5)
		for i, d := range []*dist{&e.install, &e.read, &e.miss} {
			rows[i] += fmt.Sprintf(" %.4g (n=%d)", d.quantile(0.5), d.n())
		}
	}
	rp.lines = append(rp.lines, rows[:]...)
}
