package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yanc"
	"yanc/internal/apps"
	"yanc/internal/backoff"
	"yanc/internal/ethernet"
	"yanc/internal/libyanc"
	"yanc/internal/openflow"
	"yanc/internal/procfs"
	"yanc/internal/switchsim"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// rig is the system under test, built the way yancd runs it: a
// controller from yanc.NewController serving a loopback TCP listener,
// two simulated switches dialing it (h1–s1–s2–h2), topod discovery, the
// hosts registered, the router subscribed, and the resident flow table
// preloaded through a libyanc flow ring.
type rig struct {
	rec  *recorder
	ctrl *yanc.Controller
	p    *vfs.Proc
	sws  [switchCount]*switchsim.Switch

	ln     net.Listener
	served chan struct{}
	stop   chan struct{}
	dials  sync.WaitGroup

	topod     *apps.Topod
	router    *apps.Router
	routerW   *vfs.Watch
	routerRun chan struct{}
	idleWatch uint64 // the router's own loop watch; idle, because the benchmark calls Drain

	ring     *libyanc.FlowRing
	ringHook atomic.Pointer[func(string, uint64)]

	heapBase uint64 // live heap after connect, before the preload
}

const (
	connectTimeout = 30 * time.Second
	settleTimeout  = 60 * time.Second
)

// newRig builds and preloads the rig. keepRing leaves the preload ring
// open (and wired to the driver's install hook) for the push workload.
func newRig(rec *recorder, keepRing bool) (r *rig, err error) {
	ctrl, err := yanc.NewController()
	if err != nil {
		return nil, err
	}
	r = &rig{rec: rec, ctrl: ctrl, p: ctrl.Root(), stop: make(chan struct{}), served: make(chan struct{})}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	d := ctrl.Driver()
	d.PacketInHook = rec.packetIn
	d.FlowInstalledHook = func(path string, version uint64) {
		rec.installed(path, version)
		if h := r.ringHook.Load(); h != nil {
			(*h)(path, version)
		}
	}

	r.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(r.served)
		return r, err
	}
	go func() {
		defer close(r.served)
		_ = ctrl.Serve(r.ln) // returns when the listener is closed
	}()

	for s := range r.sws {
		sw := switchsim.NewSwitch(uint64(s+1), fmt.Sprintf("sw%d", s+1), openflow.Version13)
		for port := uint32(1); port <= 3; port++ {
			sw.AddPort(port, fmt.Sprintf("%s-eth%d", sw.Name, port))
		}
		sw.SetFlowModHook(rec.switchHook(s))
		sw.SetOutput(r.forward)
		r.sws[s] = sw
	}
	pol := backoff.Policy{Min: 10 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: -1}
	for _, sw := range r.sws {
		r.dials.Add(1)
		go func(sw *switchsim.Switch) {
			defer r.dials.Done()
			sw.DialRetry(r.ln.Addr().String(), pol, r.stop, nil)
		}(sw)
	}
	if err := r.waitFor("switches to connect", connectTimeout, r.connected); err != nil {
		return r, err
	}

	// Topology and hosts, as the router needs them.
	r.topod = apps.NewTopod(r.p, "/")
	if err := r.topod.Start(); err != nil {
		return r, err
	}
	if err := r.topod.DiscoverOnce(); err != nil {
		return r, fmt.Errorf("topology discovery: %w", err)
	}
	if topo, err := apps.LoadTopology(r.p, "/"); err != nil || len(topo.Links) != 2 {
		return r, fmt.Errorf("topology discovery found %v links, want 2 (err %v)", topoLinks(topo), err)
	}
	for h := 1; h <= switchCount; h++ {
		host := switchsim.NewHost(fmt.Sprintf("h%d", h), switchsim.HostAddr(uint32(h)))
		if err := yancfs.AddHost(r.p, "/", host.Name, host.MAC.String(), host.IP.String(), fmt.Sprintf("sw%d", h), 1); err != nil {
			return r, err
		}
	}
	if err := r.startRouter(); err != nil {
		return r, err
	}

	r.heapBase = liveHeap()

	if err := r.preload(); err != nil {
		return r, err
	}
	if !keepRing {
		if err := r.closeRing(); err != nil {
			return r, err
		}
	}
	return r, nil
}

func topoLinks(t *apps.Topology) int {
	if t == nil {
		return 0
	}
	return len(t.Links)
}

func (r *rig) connected() bool {
	for s := range r.sws {
		if st, _ := r.p.ReadString(fmt.Sprintf("/switches/sw%d/status", s+1)); strings.TrimSpace(st) != "connected" {
			return false
		}
	}
	return true
}

// waitFor polls cond every millisecond until it holds or the timeout
// passes.
func (r *rig) waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := r.rec.now() + int64(timeout)
	for !cond() {
		if r.rec.now() > deadline {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// startRouter subscribes the router and drives it with the same two
// calls Router.loop makes (EnsureSubscribed, then Drain per wake), so
// the benchmark can stamp each wake. The router's own subscription
// watch is left unread; its id is noted so its overflow is not counted
// against the file system.
func (r *rig) startRouter() error {
	before := watchIDs(r.ctrl)
	r.router = apps.NewRouter(r.p, "/")
	if err := r.router.EnsureSubscribed(); err != nil {
		return err
	}
	for id := range watchIDs(r.ctrl) {
		if !before[id] {
			r.idleWatch = id
		}
	}
	w, err := r.p.AddWatch("/events/"+r.router.App, vfs.OpCreate)
	if err != nil {
		return err
	}
	r.routerW = w
	r.routerRun = make(chan struct{})
	go func() {
		defer close(r.routerRun)
		for range w.C {
			wake := r.rec.now()
			r.router.Drain()
			if r.rec.tracing.Load() {
				r.rec.drained(wake, r.rec.now())
			}
		}
	}()
	return nil
}

func watchIDs(ctrl *yanc.Controller) map[uint64]bool {
	ids := make(map[uint64]bool)
	for _, w := range ctrl.FS().VFS().WatchInfos() {
		ids[w.ID] = true
	}
	return ids
}

// forward is the fabric: s1 port 3 is linked to s2 port 2, h1 sits on
// s1 port 1 and h2 on s2 port 1. Frames reaching h2 are stamped; frames
// to h1 and to the unlinked ports are dropped.
func (r *rig) forward(sw *switchsim.Switch, port uint32, frame []byte, hops int) {
	if hops >= 16 {
		return
	}
	switch {
	case sw == r.sws[0] && port == 3:
		r.sws[1].IngressHops(2, frame, hops+1)
	case sw == r.sws[1] && port == 2:
		r.sws[0].IngressHops(3, frame, hops+1)
	case sw == r.sws[1] && port == 1:
		r.rec.delivered(frame)
	}
}

// probeFrame is the minimum-size TCP segment h1 sends to open probe k.
func probeFrame(k int) []byte {
	h1 := switchsim.NewHost("h1", switchsim.HostAddr(1))
	h2 := switchsim.NewHost("h2", switchsim.HostAddr(2))
	seg := ethernet.TCP{SrcPort: uint16(probePortBase + k), DstPort: probeDstPort, Flags: ethernet.TCPSyn, Window: 65535}
	ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoTCP, Src: h1.IP, Dst: h2.IP, Payload: seg.Serialize()}
	return ethernet.Frame{Dst: h2.MAC, Src: h1.MAC, Type: ethernet.TypeIPv4, Payload: ip.Serialize()}.Serialize()
}

// preload commits the resident table through a flow ring and waits
// until the switches have applied all of it.
func (r *rig) preload() error {
	r.ring = r.ctrl.Fastpath().NewFlowRing(libyanc.RingConfig{})
	hook := r.ring.InstallHook()
	r.ringHook.Store(&hook)
	pl := r.rec.pl
	var reapErr error
	reap := func(block bool) bool {
		e, ok := r.ring.Reap(block)
		if ok && e.Err != nil && reapErr == nil {
			reapErr = fmt.Errorf("preload %s: %w", e.Path, e.Err)
		}
		return ok
	}
	for i := 0; i < pl.preload; i++ {
		r.rec.track(i, false)
		if err := r.ring.Submit(libyanc.SQE{Op: libyanc.OpPut, Path: flowPath(pl.writes[i].flow), Spec: pl.flowSpec(i), Tag: uint64(i)}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for reap(false) {
		}
	}
	if err := r.ring.Flush(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	err := r.waitFor("the preload to install", settleTimeout, func() bool {
		for reap(false) {
		}
		return r.rec.outstanding() == 0
	})
	for reap(false) {
	}
	if err != nil {
		return err
	}
	return reapErr
}

// closeRing unwires the ring from the driver and closes it.
func (r *rig) closeRing() error {
	if r.ring == nil {
		return nil
	}
	r.ringHook.Store(nil)
	err := r.ring.Close()
	for {
		e, ok := r.ring.Reap(false)
		if !ok {
			break
		}
		if e.Err != nil && err == nil {
			err = fmt.Errorf("ring %s: %w", e.Path, e.Err)
		}
	}
	r.ring = nil
	return err
}

// close tears the rig down and waits for every goroutine it started.
func (r *rig) close() {
	if r.ring != nil {
		_ = r.closeRing() // teardown: the run already checked every completion
	}
	if r.topod != nil {
		r.topod.Stop()
	}
	if r.routerW != nil {
		r.routerW.Close()
		<-r.routerRun
	}
	close(r.stop)
	r.ctrl.Close()
	if r.ln != nil {
		r.ln.Close()
	}
	<-r.served
	r.dials.Wait()
}

// procCounters parses a /.proc file of "name value" lines.
func (r *rig) procCounters(path string) map[string]float64 {
	out := make(map[string]float64)
	s, err := r.p.ReadString(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

// installRingProc publishes the push ring's telemetry under
// /.proc/libyanc.
func installRingProc(r *rig) error {
	return procfs.InstallLibyanc(r.ctrl.FS().VFS(), r.ring)
}

// liveHeap is the heap still reachable after two forced collections
// (the second also empties the sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
