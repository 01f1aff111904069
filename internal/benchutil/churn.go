package benchutil

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/backoff"
	"yanc/internal/driver"
	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/procfs"
	"yanc/internal/switchsim"
	"yanc/internal/yancfs"
)

// ChurnConfig parameterises one city-scale churn run: an in-process
// controller, cfg.Switches simulated switches dialing it over real TCP,
// and a single deterministic op stream creating, modifying, and deleting
// flow directories while every create→installed latency is tracked from
// the WriteFlow call to the moment the switch applies the FlowAdd.
type ChurnConfig struct {
	Switches int // simulated switches dialing the controller
	Flows    int // flow dirs created in the initial create phase
	ChurnOps int // ops in the churn phase, drawn from Ratio
	// Ratio weighs the churn-phase op mix create:modify:delete.
	// Zero value means the default 2:1:1.
	Ratio   [3]int
	Seed    int64 // op-stream RNG seed; same seed, same op stream
	Version uint8 // OpenFlow version, default 1.3
	Rate    int   // approximate churn ops/sec cap; 0 = unthrottled

	// Clock, when set, replaces the wall clock for every timestamp the
	// engine takes (latency samples, phase durations). The deterministic
	// yancload tests inject a counting clock here; production runs leave
	// it nil and measure real time.
	Clock func() time.Time

	// Fastpath routes the op stream through a libyanc flow ring —
	// batched transactional commits plus installed completions — instead
	// of per-field file I/O. The op stream, conservation accounting, and
	// result shape are identical; only the write path changes, which is
	// exactly what the E17 file-I/O vs libyanc comparison measures.
	Fastpath bool

	// Progress, when set, is called from the op goroutine every
	// ProgressEvery ops and at phase transitions. Keep it cheap.
	Progress      func(ChurnProgress)
	ProgressEvery int // default 2048

	// Expose, when set, is called once with the rig's controller file
	// system right after the /.proc/load/progress synthetic is
	// installed — yancload reads its live progress line through it, the
	// same file I/O any shell or remote mount would use.
	Expose func(*yancfs.FS)

	ConnectTimeout time.Duration // default 120s
	DrainTimeout   time.Duration // default 180s
	Stagger        time.Duration // dial stagger window, default 2ms/switch capped at 2s
	EchoInterval   time.Duration // driver echo cadence, default 30s
}

// ChurnProgress is one progress sample for live display.
type ChurnProgress struct {
	Phase    string // "connect", "create", "churn", "drain", "done"
	Done     int    // ops finished in the current phase
	Total    int    // ops planned for the current phase
	Creates  int
	Modifies int
	Deletes  int
	Installs uint64
	Pending  int
}

// ChurnResult is the outcome of one churn run.
type ChurnResult struct {
	Switches int `json:"switches"`
	Flows    int `json:"flows"`
	ChurnOps int `json:"churn_ops"`

	Creates  int `json:"creates"`
	Modifies int `json:"modifies"`
	Deletes  int `json:"deletes"`

	// Installs counts every FlowAdd the switches applied, including
	// resync duplicates; Resolved counts the latency samples recorded
	// (one per create/modify whose flow survived to installation);
	// Aborted counts creates/modifies whose flow was deleted by a later
	// churn op before the switch saw it. Resolved+Aborted always equals
	// Creates+Modifies; Lost is what was still outstanding when the
	// drain timed out — the zero-lost gate pins it at 0.
	Installs uint64 `json:"installs"`
	Resolved uint64 `json:"resolved"`
	Aborted  uint64 `json:"aborted"`
	Lost     int    `json:"lost"`

	Connect     time.Duration `json:"connect_ns"`
	CreatePhase time.Duration `json:"create_phase_ns"`
	ChurnPhase  time.Duration `json:"churn_phase_ns"`
	Drain       time.Duration `json:"drain_ns"`

	Hist TrackSnapshot `json:"-"`
}

// installTracker matches WriteFlow calls to the FlowAdds the switches
// later apply. Keys are match identities (Match.Identity: globally
// unique per flow index by construction, see SampleFlowSpec, and
// compared without formatting the match); each key holds a FIFO of
// start timestamps. A FlowAdd resolves every outstanding start for its
// key at once: the driver's version dedup may coalesce back-to-back
// modifies into a single push, and all of them became switch state the
// moment that one FlowAdd landed. A delete op aborts every outstanding
// start for its key: the flow can legitimately vanish before the switch
// ever saw those writes, and that is churn, not loss. Every start is
// thus consumed exactly once — resolved, aborted, or (a bug) left over
// as Lost.
type installTracker struct {
	mu       sync.Mutex
	pending  map[openflow.Match][]int64
	npending int
	hist     *TrackingHistogram
	resolved atomic.Uint64
	aborted  atomic.Uint64
}

func newInstallTracker() *installTracker {
	return &installTracker{pending: make(map[openflow.Match][]int64), hist: NewTrackingHistogram()}
}

func (t *installTracker) add(key openflow.Match, startNS int64) {
	t.mu.Lock()
	t.pending[key] = append(t.pending[key], startNS)
	t.npending++
	t.mu.Unlock()
}

func (t *installTracker) resolve(key openflow.Match, nowNS int64) {
	t.mu.Lock()
	starts := t.pending[key]
	if len(starts) > 0 {
		delete(t.pending, key)
		t.npending -= len(starts)
	}
	t.mu.Unlock()
	for _, s := range starts {
		t.hist.Observe(time.Duration(nowNS - s))
	}
	t.resolved.Add(uint64(len(starts)))
}

func (t *installTracker) abort(key openflow.Match) {
	t.mu.Lock()
	n := len(t.pending[key])
	if n > 0 {
		delete(t.pending, key)
		t.npending -= n
	}
	t.mu.Unlock()
	t.aborted.Add(uint64(n))
}

func (t *installTracker) remaining() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.npending
}

// RunChurn builds the rig, runs the three phases (create, churn, drain),
// and returns the accounting. The op stream is a pure function of the
// config: one goroutine draws from a seeded RNG, so two runs with the
// same config perform the identical sequence of fs operations.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	if cfg.Switches <= 0 || cfg.Flows <= 0 {
		return nil, fmt.Errorf("churn: need at least one switch and one flow (got %d, %d)", cfg.Switches, cfg.Flows)
	}
	if cfg.Ratio == [3]int{} {
		cfg.Ratio = [3]int{2, 1, 1}
	}
	if cfg.Ratio[0] <= 0 {
		return nil, fmt.Errorf("churn: create weight must be positive, got %v", cfg.Ratio)
	}
	if cfg.Version == 0 {
		cfg.Version = openflow.Version13
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 2048
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 120 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 180 * time.Second
	}
	if cfg.Stagger <= 0 {
		cfg.Stagger = time.Duration(cfg.Switches) * 2 * time.Millisecond
		if cfg.Stagger > 2*time.Second {
			cfg.Stagger = 2 * time.Second
		}
	}
	if cfg.EchoInterval <= 0 {
		cfg.EchoInterval = 30 * time.Second
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now // value, not a call: the default for the injectable clock
	}

	res := &ChurnResult{Switches: cfg.Switches, Flows: cfg.Flows, ChurnOps: cfg.ChurnOps}
	tr := newInstallTracker()
	var installs atomic.Uint64
	var creates, modifies, deletes atomic.Int64
	var phase atomic.Value
	phase.Store("connect")

	// Controller side.
	y, err := yancfs.New()
	if err != nil {
		return nil, err
	}
	if err := procfs.InstallLoad(y.VFS(), func() ([]byte, error) {
		return []byte(fmt.Sprintf(
			"phase    %s\nswitches %d\nflows    %d\ncreates  %d\nmodifies %d\ndeletes  %d\ninstalls %d\nresolved %d\naborted  %d\npending  %d\n",
			phase.Load(), cfg.Switches, cfg.Flows,
			creates.Load(), modifies.Load(), deletes.Load(),
			installs.Load(), tr.resolved.Load(), tr.aborted.Load(), tr.remaining())), nil
	}); err != nil {
		return nil, err
	}
	if cfg.Expose != nil {
		cfg.Expose(y)
	}
	p := y.Root()
	d := driver.New(y)
	d.EchoInterval = cfg.EchoInterval

	// Fastpath: all flow writes go through one ring; a reaper discards
	// completions (the tracker already accounts installs via the switch
	// hook) but keeps the first per-entry error for the final verdict.
	var ring *libyanc.FlowRing
	var reapDone chan error
	writeFlow := func(path string, spec yancfs.FlowSpec) error {
		_, werr := yancfs.WriteFlow(p, path, spec)
		return werr
	}
	deleteFlow := func(path string) error { return yancfs.DeleteFlow(p, path) }
	if cfg.Fastpath {
		ring = libyanc.New(y).NewFlowRing(libyanc.RingConfig{SQDepth: 1024, Clock: now})
		defer func() {
			//yancvet:allow errdrop error-path teardown; the success path closed the ring and checked the error already
			_ = ring.Close()
		}()
		if err := procfs.InstallLibyanc(y.VFS(), ring); err != nil {
			return nil, err
		}
		d.FlowInstalledHook = ring.InstallHook()
		reapDone = make(chan error, 1)
		go func() {
			var first error
			for {
				e, ok := ring.Reap(true)
				if !ok {
					reapDone <- first
					return
				}
				if e.Err != nil && first == nil {
					first = e.Err
				}
			}
		}()
		writeFlow = func(path string, spec yancfs.FlowSpec) error {
			return ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: path, Spec: spec})
		}
		deleteFlow = func(path string) error {
			return ring.Submit(libyanc.SQE{Op: libyanc.OpDelete, Path: path})
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = d.Serve(ln) }()

	// Switch side: hooks installed before dialing so the very first
	// pushed flow is already timed.
	n := switchsim.NewNetwork()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pol := backoff.Policy{Min: 20 * time.Millisecond, Max: 500 * time.Millisecond, Jitter: -1}
	for i := 1; i <= cfg.Switches; i++ {
		n.AddSwitch(uint64(i), fmt.Sprintf("sw%d", i), cfg.Version, 2)
		sw := n.Switch(uint64(i))
		sw.SetFlowModHook(func(fm *openflow.FlowMod) {
			if fm.Command != openflow.FlowAdd {
				return
			}
			installs.Add(1)
			tr.resolve(fm.Match.Identity(), now().UnixNano())
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw.DialRetryStaggered(ln.Addr().String(), pol, cfg.Stagger, stop, nil)
		}()
	}
	defer func() {
		close(stop)
		d.Close()
		ln.Close()
		<-serveDone
		wg.Wait()
	}()

	report := func(ph string, done, total int) {
		if cfg.Progress == nil {
			return
		}
		cfg.Progress(ChurnProgress{
			Phase: ph, Done: done, Total: total,
			Creates: int(creates.Load()), Modifies: int(modifies.Load()), Deletes: int(deletes.Load()),
			Installs: installs.Load(), Pending: tr.remaining(),
		})
	}

	// Connect phase: wait for every switch to report "connected". The
	// deadline is real elapsed time — this is TCP against a real
	// listener — regardless of any injected clock.
	connectStart := now()
	deadline := time.Now().Add(cfg.ConnectTimeout) //yancvet:wallclock real TCP connect deadline
	for up := 0; up < cfg.Switches; {
		up = 0
		for i := 1; i <= cfg.Switches; i++ {
			if s, _ := p.ReadString(fmt.Sprintf("/switches/sw%d/status", i)); s == "connected" {
				up++
			}
		}
		if up == cfg.Switches {
			break
		}
		if time.Now().After(deadline) { //yancvet:wallclock real TCP connect deadline
			return nil, fmt.Errorf("churn: only %d/%d switches connected within %v", up, cfg.Switches, cfg.ConnectTimeout)
		}
		report("connect", up, cfg.Switches)
		time.Sleep(20 * time.Millisecond) //yancvet:wallclock poll pacing against real sockets
	}
	res.Connect = now().Sub(connectStart)

	flowPath := func(idx int) string {
		return fmt.Sprintf("/switches/sw%d/flows/f%07d", 1+idx%cfg.Switches, idx)
	}

	// Create phase.
	phase.Store("create")
	createStart := now()
	live := make([]int, 0, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		spec := SampleFlowSpec(i)
		tr.add(spec.Match.Identity(), now().UnixNano())
		if err := writeFlow(flowPath(i), spec); err != nil {
			return nil, fmt.Errorf("churn: create f%07d: %w", i, err)
		}
		creates.Add(1)
		live = append(live, i)
		if (i+1)%cfg.ProgressEvery == 0 {
			report("create", i+1, cfg.Flows)
		}
	}
	res.CreatePhase = now().Sub(createStart)

	// Churn phase: one goroutine, one RNG, deterministic op stream.
	phase.Store("churn")
	churnStart := now()
	rng := rand.New(rand.NewSource(cfg.Seed))
	next := cfg.Flows
	totalW := cfg.Ratio[0] + cfg.Ratio[1] + cfg.Ratio[2]
	for op := 0; op < cfg.ChurnOps; op++ {
		r := rng.Intn(totalW)
		switch {
		case r < cfg.Ratio[0] || len(live) == 0:
			idx := next
			next++
			spec := SampleFlowSpec(idx)
			tr.add(spec.Match.Identity(), now().UnixNano())
			if err := writeFlow(flowPath(idx), spec); err != nil {
				return nil, fmt.Errorf("churn: create f%07d: %w", idx, err)
			}
			creates.Add(1)
			live = append(live, idx)
		case r < cfg.Ratio[0]+cfg.Ratio[1]:
			idx := live[rng.Intn(len(live))]
			spec := SampleFlowSpec(idx)
			// A modify keeps match and priority — so the switch updates
			// the same entry in place — and rewrites the action list.
			spec.Actions[0].TOS = uint8(4 * (1 + op%32))
			tr.add(spec.Match.Identity(), now().UnixNano())
			if err := writeFlow(flowPath(idx), spec); err != nil {
				return nil, fmt.Errorf("churn: modify f%07d: %w", idx, err)
			}
			modifies.Add(1)
		default:
			j := rng.Intn(len(live))
			idx := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			tr.abort(SampleFlowSpec(idx).Match.Identity())
			if err := deleteFlow(flowPath(idx)); err != nil {
				return nil, fmt.Errorf("churn: delete f%07d: %w", idx, err)
			}
			deletes.Add(1)
		}
		if (op+1)%cfg.ProgressEvery == 0 {
			report("churn", op+1, cfg.ChurnOps)
		}
		if cfg.Rate > 0 && (op+1)%16 == 0 {
			time.Sleep(16 * time.Second / time.Duration(cfg.Rate)) //yancvet:wallclock op-rate pacing
		}
	}
	res.ChurnPhase = now().Sub(churnStart)

	// Fastpath: the op stream is only submitted at this point; wait for
	// every entry's commit completion before draining the install side.
	if ring != nil {
		if err := ring.Flush(); err != nil {
			return nil, fmt.Errorf("churn: ring flush: %w", err)
		}
	}

	// Drain phase: the op stream has stopped; wait for the driver to
	// work through its backlog until every outstanding start has been
	// resolved or aborted. Again a real-time deadline — the backlog is
	// real goroutines doing real socket I/O.
	phase.Store("drain")
	drainStart := now()
	drainDeadline := time.Now().Add(cfg.DrainTimeout) //yancvet:wallclock real drain deadline
	for tr.remaining() > 0 {
		if time.Now().After(drainDeadline) { //yancvet:wallclock real drain deadline
			break
		}
		report("drain", int(tr.resolved.Load()+tr.aborted.Load()), int(creates.Load()+modifies.Load()))
		time.Sleep(5 * time.Millisecond) //yancvet:wallclock poll pacing for the driver backlog
	}
	res.Drain = now().Sub(drainStart)
	phase.Store("done")

	if ring != nil {
		if err := ring.Close(); err != nil {
			return nil, fmt.Errorf("churn: ring: %w", err)
		}
		if err := <-reapDone; err != nil {
			return nil, fmt.Errorf("churn: ring completion: %w", err)
		}
	}

	res.Creates = int(creates.Load())
	res.Modifies = int(modifies.Load())
	res.Deletes = int(deletes.Load())
	res.Installs = installs.Load()
	res.Resolved = tr.resolved.Load()
	res.Aborted = tr.aborted.Load()
	res.Lost = tr.remaining()
	res.Hist = tr.hist.Snapshot()
	report("done", res.Creates+res.Modifies, res.Creates+res.Modifies)
	return res, nil
}
