package main

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/ethernet"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
)

// Write states.
const (
	wIdle uint32 = iota
	wPending
	wResolved
	wAborted
	wFailed
)

// recorder holds every timestamp the benchmark takes. Stamps are ns
// since epoch on the monotonic clock; 0 means "not seen". Hooks run on
// driver, switch and watch goroutines, so every stamp is an atomic.
// End-to-end stamps (due, applied, delivered) are always taken; the
// per-stage stamps in between only while tracing is on, and only for
// ops due at or after plan.traceAt.
type recorder struct {
	epoch   time.Time
	pl      *plan
	tracing atomic.Bool

	// Writes, indexed like plan.writes.
	wStart, wRet, wNotify, wWire, wApply, wCommit []atomic.Int64
	wVersion                                      []atomic.Uint64
	wState                                        []atomic.Uint32

	mu         sync.Mutex
	pending    map[int][]int // flow -> writes awaiting their FlowAdd, oldest first
	npending   int
	notifyWait map[int]int         // flow -> traced write awaiting its version-write event
	wireAt     map[[2]uint64]int64 // (flow, version) -> driver wrote the flow-mod
	drains     [][2]int64          // router Drain calls while tracing: wake, return

	flowAdds atomic.Int64 // FlowAdds of benchmark writes applied by the switches
	dupAdds  atomic.Int64 // ...of which no pending write owned the cookie
	dels     atomic.Int64 // flow deletes applied by the switches

	// Probes (new TCP flows h1→h2), indexed like plan.probes.
	pPktin, pDeliver []atomic.Int64
	pInstall         [switchCount][]atomic.Int64
	probeAdds        atomic.Int64 // router FlowAdds applied for probes
	pktins           atomic.Int64 // probe packet-ins seen by the driver (tracing)
	dupDeliveries    atomic.Int64
}

func newRecorder(pl *plan) *recorder {
	n := len(pl.writes)
	r := &recorder{
		epoch:      time.Now(),
		pl:         pl,
		wStart:     make([]atomic.Int64, n),
		wRet:       make([]atomic.Int64, n),
		wNotify:    make([]atomic.Int64, n),
		wWire:      make([]atomic.Int64, n),
		wApply:     make([]atomic.Int64, n),
		wCommit:    make([]atomic.Int64, n),
		wVersion:   make([]atomic.Uint64, n),
		wState:     make([]atomic.Uint32, n),
		pending:    make(map[int][]int),
		notifyWait: make(map[int]int),
		wireAt:     make(map[[2]uint64]int64),
		pPktin:     make([]atomic.Int64, len(pl.probes)),
		pDeliver:   make([]atomic.Int64, len(pl.probes)),
	}
	for s := range r.pInstall {
		r.pInstall[s] = make([]atomic.Int64, len(pl.probes))
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// waitUntil sleeps until the monotonic instant at (ns since epoch).
func (r *recorder) waitUntil(at int64) {
	for {
		d := at - r.now()
		if d <= 0 {
			return
		}
		time.Sleep(time.Duration(d))
	}
}

// track registers write i as awaiting its FlowAdd. Call it before the
// write, so the FlowAdd cannot arrive first.
func (r *recorder) track(i int, traced bool) {
	f := r.pl.writes[i].flow
	r.wState[i].Store(wPending)
	r.mu.Lock()
	r.pending[f] = append(r.pending[f], i)
	r.npending++
	if traced {
		r.notifyWait[f] = i
	}
	r.mu.Unlock()
}

// fail marks a pending write whose call returned an error.
func (r *recorder) fail(i int) {
	f := r.pl.writes[i].flow
	r.mu.Lock()
	r.removeLocked(f, i)
	r.mu.Unlock()
	r.wState[i].Store(wFailed)
}

func (r *recorder) removeLocked(f, i int) {
	lst := r.pending[f]
	for k, j := range lst {
		if j == i {
			lst = append(lst[:k:k], lst[k+1:]...)
			r.npending--
			break
		}
	}
	if len(lst) == 0 {
		delete(r.pending, f)
	} else {
		r.pending[f] = lst
	}
}

// abort ends every pending write of a flow that is about to be
// deleted: the flow may legitimately vanish before the switch applied
// those writes.
func (r *recorder) abort(f int) {
	r.mu.Lock()
	lst := r.pending[f]
	delete(r.pending, f)
	r.npending -= len(lst)
	delete(r.notifyWait, f)
	r.mu.Unlock()
	for _, j := range lst {
		r.wState[j].Store(wAborted)
	}
}

func (r *recorder) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.npending
}

// onFlowAdd resolves the write whose cookie the switch just applied,
// together with every older pending write of the same flow: the driver
// may coalesce back-to-back versions into one flow-mod, and the older
// writes were superseded the moment the newer content landed.
func (r *recorder) onFlowAdd(i int, at int64) {
	r.flowAdds.Add(1)
	f := r.pl.writes[i].flow
	r.mu.Lock()
	lst := r.pending[f]
	pos := -1
	for k, j := range lst {
		if j == i {
			pos = k
			break
		}
	}
	if pos < 0 {
		r.mu.Unlock()
		r.dupAdds.Add(1)
		return
	}
	done := append([]int(nil), lst[:pos+1]...)
	if rest := lst[pos+1:]; len(rest) > 0 {
		r.pending[f] = rest
	} else {
		delete(r.pending, f)
	}
	r.npending -= len(done)
	r.mu.Unlock()
	for _, j := range done {
		r.wApply[j].Store(at)
		r.wState[j].Store(wResolved)
	}
}

// switchHook is installed as switch s's flow-mod hook.
func (r *recorder) switchHook(s int) func(fm *openflow.FlowMod) {
	return func(fm *openflow.FlowMod) {
		if fm.Command == openflow.FlowDelete || fm.Command == openflow.FlowDeleteStrict {
			r.dels.Add(1)
		}
		if fm.Command != openflow.FlowAdd {
			return
		}
		at := r.now()
		if fm.Cookie != 0 {
			if i := int(fm.Cookie) - 1; i < len(r.pl.writes) {
				r.onFlowAdd(i, at)
			}
			return
		}
		if fm.Match.Has(openflow.FieldTPSrc) && fm.Match.NWDst.Addr == switchsim.HostAddr(2) {
			if k, ok := r.probeIndex(fm.Match.TPSrc); ok {
				r.probeAdds.Add(1)
				r.pInstall[s][k].CompareAndSwap(0, at)
			}
		}
	}
}

func (r *recorder) probeIndex(port uint16) (int, bool) {
	k := int(port) - probePortBase
	return k, k >= 0 && k < len(r.pl.probes)
}

// framePort returns the TCP source port of a probe frame.
func framePort(frame []byte) (uint16, bool) {
	pf, err := openflow.ExtractFields(frame, 0)
	if err != nil || pf.DLType != uint16(ethernet.TypeIPv4) || pf.NWProto != ethernet.ProtoTCP {
		return 0, false
	}
	return pf.TPSrc, true
}

// delivered stamps a frame reaching h2.
func (r *recorder) delivered(frame []byte) {
	at := r.now()
	port, ok := framePort(frame)
	if !ok {
		return
	}
	if k, ok := r.probeIndex(port); ok && !r.pDeliver[k].CompareAndSwap(0, at) {
		r.dupDeliveries.Add(1)
	}
}

// packetIn is the driver's PacketInHook. It only observes: returning
// false leaves delivery to the file system unchanged.
func (r *recorder) packetIn(_ string, pi *openflow.PacketIn) bool {
	if !r.tracing.Load() {
		return false
	}
	at := r.now()
	if port, ok := framePort(pi.Data); ok {
		if k, ok := r.probeIndex(port); ok {
			r.pktins.Add(1)
			r.pPktin[k].CompareAndSwap(0, at)
		}
	}
	return false
}

// installed is the tracing half of the driver's FlowInstalledHook: the
// flow-mod for (flow, version) has been written to the socket.
func (r *recorder) installed(path string, version uint64) {
	if !r.tracing.Load() {
		return
	}
	at := r.now()
	f, ok := flowOfPath(path)
	if !ok {
		return
	}
	key := [2]uint64{uint64(f), version}
	r.mu.Lock()
	if _, seen := r.wireAt[key]; !seen {
		r.wireAt[key] = at
	}
	r.mu.Unlock()
}

// notified stamps the traced write waiting on a flow's version-write
// event.
func (r *recorder) notified(path string) {
	at := r.now()
	f, ok := flowOfPath(strings.TrimSuffix(path, "/version"))
	if !ok {
		return
	}
	r.mu.Lock()
	i, ok := r.notifyWait[f]
	delete(r.notifyWait, f)
	r.mu.Unlock()
	if ok {
		r.wNotify[i].CompareAndSwap(0, at)
	}
}

func (r *recorder) drained(wake, done int64) {
	r.mu.Lock()
	r.drains = append(r.drains, [2]int64{wake, done})
	r.mu.Unlock()
}

// flowOfPath parses the flow index out of /switches/swN/flows/fNNNNNNN.
func flowOfPath(path string) (int, bool) {
	i := strings.LastIndex(path, "/flows/f")
	if i < 0 {
		return 0, false
	}
	f, err := strconv.Atoi(path[i+len("/flows/f"):])
	return f, err == nil
}
