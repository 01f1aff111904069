// Package driver implements yanc device drivers (§4.1): thin translators
// between the control protocol a switch speaks (OpenFlow 1.0 or 1.3) and
// the yanc file system. A driver
//
//   - accepts a switch's control connection and handshakes as the
//     controller, negotiating the protocol version per switch, so a
//     network can run mixed versions and be upgraded live;
//   - materializes the switch as a directory under switches/ and keeps
//     port files in sync with port-status messages;
//   - watches the switch's flows/ subtree and pushes committed flows
//     (version-file increments, §3.4) to the hardware as flow-mods;
//   - feeds packet-in messages into every subscriber's event buffer
//     (§3.5) and serves live counters for the counters/ files;
//   - exposes a packet_out control file for injecting packets.
//
// "With the file system as the API, supporting new protocols only
// requires a new driver" — here both protocol versions go through the
// same translation logic with a per-connection codec.
package driver

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// statsTimeout bounds synchronous counter queries to the switch.
const statsTimeout = 2 * time.Second

// Liveness-probe defaults (overridable per Driver).
const (
	DefaultEchoInterval = 5 * time.Second
	DefaultEchoMisses   = 3
)

// Driver manages the control connections of all switches speaking some
// OpenFlow version range, translating to one yanc file system region.
type Driver struct {
	Y          *yancfs.FS
	Region     string // region the switches appear in (usually "/")
	MaxVersion uint8  // highest protocol version to offer
	NameFor    func(dpid uint64) string
	Logf       func(format string, args ...any)
	// PacketInHook, when set, receives every packet-in before file-system
	// delivery (the libyanc zero-copy fastpath plugs in here). Returning
	// true consumes the message and skips the event-directory copies.
	PacketInHook func(switchName string, pi *openflow.PacketIn) bool

	// FlowInstalledHook, when set, is called after a flow-mod has been
	// written to a switch's control channel: the libyanc completion ring
	// plugs in here (FlowRing.InstallHook) to report end-to-end
	// installed completions. It runs on driver mux workers — keep it
	// cheap and never call back into the file system.
	FlowInstalledHook func(flowPath string, version uint64)

	// EchoInterval is how often the driver probes each switch with an
	// OpenFlow echo request; EchoMisses is how many consecutive unanswered
	// probes tear the connection down. A hung switch — one whose TCP
	// connection never errors — is detected this way, so the status file
	// stays truthful about liveness even when the transport lies.
	// EchoInterval <= 0 disables probing.
	EchoInterval time.Duration
	EchoMisses   int

	// Clock overrides the time source for file-stamped timestamps
	// (last_seen). When nil the driver uses the file system's clock
	// (vfs.FS.SetClock), so simulated time in tests governs staleness the
	// same way it governs inode times.
	Clock func() time.Time

	// ProcDir, when non-empty, names a directory (usually
	// /.proc/driver) where the driver publishes per-switch telemetry
	// files: <ProcDir>/<name>/{rtt,echo,tx_rx}.
	ProcDir string

	mu    sync.Mutex
	conns map[string]*SwitchConn
	mux   *mux // lazily created on first Attach, stopped by Close
}

// New creates a driver for the master region offering up to OF 1.3.
func New(y *yancfs.FS) *Driver {
	return &Driver{
		Y:            y,
		Region:       "/",
		MaxVersion:   openflow.Version13,
		NameFor:      func(dpid uint64) string { return fmt.Sprintf("sw%d", dpid) },
		Logf:         func(string, ...any) {},
		EchoInterval: DefaultEchoInterval,
		EchoMisses:   DefaultEchoMisses,
	}
}

// VerboseLog routes driver logging to the standard logger.
func (d *Driver) VerboseLog() { d.Logf = log.Printf }

// flowState remembers what was last pushed to hardware for one flow
// directory, so renames/edits can delete the superseded entry.
type flowState struct {
	match    openflow.Match
	priority uint16
	version  uint64
}

// SwitchConn is one connected switch.
type SwitchConn struct {
	Name     string
	Path     string
	Features *openflow.FeaturesReply
	Protocol string

	driver *Driver
	conn   *openflow.Conn
	proc   *vfs.Proc
	mux    *mux

	mu         sync.Mutex
	flows      map[string]flowState // flow dir name -> pushed state
	portConfig map[uint32]uint32    // hardware port config as last seen
	pending    map[uint32]chan *openflow.StatsReply
	echoMiss   int // consecutive unanswered liveness probes
	closed     bool
	done       chan struct{}
	discOnce   sync.Once // onDisconnect runs exactly once

	// Mailbox (mux.go): the connection's serialized task queue.
	boxMu     sync.Mutex
	box       []func()
	boxActive bool

	// Packet-in coalescing: the read path enqueues and schedules a drain
	// task that batches into DeliverPacketInBatch, so a flood of
	// packet-ins costs one file system transaction per batch instead of
	// one per message. pktinBatch is the drain's claim buffer, allocated
	// once per connection and reused every drain (it is touched only by
	// the mailbox-serialized drainPktin). drainBoxFn/drainPktinFn are the
	// bound method values, hoisted here so scheduling a drain does not
	// allocate a closure per wakeup.
	pktin          chan *openflow.PacketIn
	pktinScheduled atomic.Bool
	pktinBatch     []*openflow.PacketIn
	drainBoxFn     func()
	drainPktinFn   func()

	// Control-channel telemetry, published as <ProcDir>/<name> files.
	txMsgs       atomic.Uint64
	rxMsgs       atomic.Uint64
	echoSent     atomic.Uint64
	echoReplies  atomic.Uint64
	echoSentAt   atomic.Int64 // unixnano of the latest probe, for RTT
	rtt          vfs.Histogram
	pktinSeen    atomic.Uint64 // packet-ins read off the wire
	pktinDropped atomic.Uint64 // shed because the coalescing queue was full
	pktinBatches atomic.Uint64 // DeliverPacketInBatch calls issued
}

// maxPktInBatch bounds how many queued packet-ins one delivery
// transaction will coalesce.
const maxPktInBatch = 64

// pktInQueueLen is the depth of the queue from readLoop to the mailbox's
// drainPktin; beyond it the driver sheds packet-ins rather than stall
// the control channel reader.
const pktInQueueLen = 1024

// now returns the driver's timestamp source for file-stamped times: the
// Clock override when set, else the file system clock.
func (d *Driver) now() time.Time {
	if d.Clock != nil {
		return d.Clock()
	}
	return d.Y.VFS().Now()
}

// write sends one message to the switch, counting it.
func (sc *SwitchConn) write(msg openflow.Message) error {
	sc.txMsgs.Add(1)
	return sc.conn.Write(msg)
}

// handshakeBacklog bounds concurrent handshakes. A mass reconnect (a
// city's worth of switches redialing after a controller restart) must
// not fan a thousand simultaneous handshakes out across the scheduler:
// connections are accepted immediately — so the kernel accept queue
// never overflows and dialers never see spurious timeouts — and then
// handshake in bounded batches.
const handshakeBacklog = 64

// Serve accepts switch connections until the listener closes.
func (d *Driver) Serve(l net.Listener) error {
	sem := make(chan struct{}, handshakeBacklog)
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := d.Attach(c); err != nil {
				d.Logf("driver: attach: %v", err)
				c.Close()
			}
		}()
	}
}

// ensureMux returns the driver's mux, creating it on first use (the
// switches directory must exist, so callers run it after populate).
func (d *Driver) ensureMux() (*mux, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mux != nil {
		return d.mux, nil
	}
	m, err := newMux(d)
	if err != nil {
		return nil, err
	}
	d.mux = m
	return m, nil
}

// snapshotConns returns the live connections.
func (d *Driver) snapshotConns() []*SwitchConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*SwitchConn, 0, len(d.conns))
	for _, sc := range d.conns {
		out = append(out, sc)
	}
	return out
}

// Attach handshakes a switch control channel and wires it into the file
// system. It returns once the switch directory is fully populated; the
// translation loops run until the connection dies or Close is called.
func (d *Driver) Attach(rw io.ReadWriter) (*SwitchConn, error) {
	conn := openflow.NewConn(rw)
	features, err := conn.HandshakeController(d.MaxVersion)
	if err != nil {
		return nil, fmt.Errorf("driver: handshake: %w", err)
	}
	name := d.NameFor(features.DatapathID)
	sc := &SwitchConn{
		Name:       name,
		Path:       vfs.Join(d.Region, yancfs.DirSwitches, name),
		Features:   features,
		Protocol:   protocolName(conn.Version()),
		driver:     d,
		conn:       conn,
		proc:       d.Y.Root(),
		flows:      make(map[string]flowState),
		portConfig: make(map[uint32]uint32),
		pending:    make(map[uint32]chan *openflow.StatsReply),
		pktin:      make(chan *openflow.PacketIn, pktInQueueLen),
		pktinBatch: make([]*openflow.PacketIn, 0, maxPktInBatch),
		done:       make(chan struct{}),
	}
	sc.drainBoxFn = sc.drainBox
	sc.drainPktinFn = sc.drainPktin
	for _, p := range features.Ports {
		sc.portConfig[p.No] = p.Config
	}
	if err := sc.populate(); err != nil {
		return nil, err
	}
	// The shared switches/ watch (created with the mux) is registered
	// before the connection is, so no commit after this point can be
	// missed: events raced against registration are covered by the
	// syncAllFlows below, everything later reaches the mailbox.
	m, err := d.ensureMux()
	if err != nil {
		return nil, err
	}
	sc.mux = m
	d.mu.Lock()
	if d.conns == nil {
		d.conns = make(map[string]*SwitchConn)
	}
	old := d.conns[name]
	d.conns[name] = sc
	d.mu.Unlock()
	if old != nil {
		old.stop()
	}
	if d.ProcDir != "" {
		d.installProcFiles(name)
	}
	// The file system stays truthful about liveness from the moment
	// Attach returns.
	_ = sc.proc.WriteString(vfs.Join(sc.Path, "status"), "connected\n")
	sc.touchLastSeen()

	// Push any flows already committed in the file system (controller
	// restart / live protocol upgrade: the network state outlives the
	// connection), and any packet-outs staged while disconnected.
	sc.syncAllFlows()
	sc.drainPacketOut()

	go sc.readLoop()
	d.Logf("driver: %s attached (dpid %016x, %s, %d ports)",
		name, features.DatapathID, sc.Protocol, len(features.Ports))
	return sc, nil
}

// Lookup returns the connection for a switch name.
func (d *Driver) Lookup(name string) *SwitchConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[name]
}

// Close stops all switch connections and the mux behind them. The
// driver is reusable: a later Attach lazily builds a fresh mux.
func (d *Driver) Close() {
	d.mu.Lock()
	conns := make([]*SwitchConn, 0, len(d.conns))
	for _, sc := range d.conns {
		conns = append(conns, sc)
	}
	d.conns = nil
	m := d.mux
	d.mux = nil
	d.mu.Unlock()
	for _, sc := range conns {
		sc.stop()
	}
	if m != nil {
		m.stop()
	}
}

func protocolName(version uint8) string {
	switch version {
	case openflow.Version10:
		return "openflow10"
	case openflow.Version13:
		return "openflow13"
	default:
		return fmt.Sprintf("openflow-%02x", version)
	}
}

// populate creates and fills the switch directory, installs the
// packet_out control file, and binds live counters.
func (sc *SwitchConn) populate() error {
	p := sc.proc
	if !p.Exists(sc.Path) {
		if _, err := yancfs.CreateSwitch(p, sc.driver.Region, sc.Name); err != nil {
			return err
		}
	}
	if err := yancfs.PopulateSwitch(p, sc.Path, sc.Features, sc.Protocol); err != nil {
		return err
	}
	// packet_out control file: writing an action spec plus payload sends
	// a packet-out to the switch. The pout/ directory next to it is the
	// zero-copy alternative: libyanc hard-links staged frames in and
	// rings the doorbell; the driver consumes them by reference.
	err := sc.driver.Y.VFS().WithTx(func(tx *vfs.Tx) error {
		pout := vfs.Join(sc.Path, yancfs.DirPacketOut)
		if !tx.Exists(pout) {
			if err := tx.Mkdir(pout, 0o755, 0, 0); err != nil {
				return err
			}
		}
		return tx.SetSynthetic(vfs.Join(sc.Path, "packet_out"), &vfs.Synthetic{
			Write: sc.handlePacketOutWrite,
		}, 0o644, 0, 0)
	})
	if err != nil {
		return err
	}
	sc.driver.Y.BindCounters(sc.Path, sc)
	return nil
}

// stop tears the connection down: close the transport (which ends the
// reader goroutine's blocked Read) and run the disconnect bookkeeping
// exactly once.
func (sc *SwitchConn) stop() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	close(sc.done)
	sc.mu.Unlock()
	sc.conn.Close()
	sc.discOnce.Do(sc.onDisconnect)
}

// onDisconnect is the disconnect bookkeeping shared by every teardown
// path. The switch directory (and its committed flows) persists across
// disconnects so a reconnecting or upgraded switch is resynced from it,
// but its status file says the control channel is down. If another
// connection has already replaced this one (fast reconnect), the
// replacement owns the status file and the write is skipped.
func (sc *SwitchConn) onDisconnect() {
	d := sc.driver
	d.mu.Lock()
	current := d.conns == nil || d.conns[sc.Name] == sc
	if d.conns != nil && d.conns[sc.Name] == sc {
		delete(d.conns, sc.Name)
	}
	d.mu.Unlock()
	if current {
		_ = sc.proc.WriteString(vfs.Join(sc.Path, "status"), "disconnected\n")
	}
}

// Done is closed when the connection has shut down.
func (sc *SwitchConn) Done() <-chan struct{} { return sc.done }

// touchLastSeen records proof-of-life from the switch in its last_seen
// file (unix seconds), so operators and apps can judge staleness by
// reading a file, per the everything-is-a-file discipline.
func (sc *SwitchConn) touchLastSeen() {
	_ = sc.proc.WriteString(vfs.Join(sc.Path, "last_seen"),
		strconv.FormatInt(sc.driver.now().Unix(), 10)+"\n")
}

// echoProbe is one liveness tick for this connection, scheduled by the
// mux's echo loop through the mailbox. When `misses` consecutive probes
// go unanswered the connection is torn down, which flips status to
// "disconnected" even though TCP never reported an error — the
// hung-switch case a production controller must detect.
func (sc *SwitchConn) echoProbe(misses int) {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	missed := sc.echoMiss
	sc.echoMiss++
	sc.mu.Unlock()
	if missed >= misses {
		sc.driver.Logf("driver: %s: %d echo probes unanswered, tearing down", sc.Name, missed)
		sc.stop()
		return
	}
	sc.echoSent.Add(1)
	sc.echoSentAt.Store(sc.driver.now().UnixNano())
	_ = sc.write(&openflow.EchoRequest{})
}

// readLoop is the connection's read path, for every transport: one
// goroutine parked in Conn.Read (for sockets, in the Go runtime's
// netpoller), dispatching each frame through handleMessage. A read or
// framing error — a short length field, an unknown version, a closed
// transport — tears the connection down.
func (sc *SwitchConn) readLoop() {
	defer sc.stop()
	for {
		msg, err := sc.conn.Read()
		if err != nil {
			return
		}
		sc.handleMessage(msg)
	}
}

// handleMessage dispatches one message arriving from the switch. Only
// the connection's readLoop calls it, so messages are handled in wire
// order, concurrently with the mailbox: every field it shares with
// mailbox tasks is atomic or guarded by sc.mu.
func (sc *SwitchConn) handleMessage(msg openflow.Message) {
	sc.rxMsgs.Add(1)
	switch m := msg.(type) {
	case *openflow.PacketIn:
		sc.pktinSeen.Add(1)
		if hook := sc.driver.PacketInHook; hook != nil && hook(sc.Name, m) {
			return
		}
		// Hand off to the coalescing drain task; shedding here (full
		// queue = the file system cannot keep up) keeps the control
		// channel reader responsive to echoes and barriers.
		select {
		case sc.pktin <- m:
		default:
			sc.pktinDropped.Add(1)
			return
		}
		if sc.pktinScheduled.CompareAndSwap(false, true) {
			sc.enqueue(sc.drainPktinFn)
		}
	case *openflow.PortStatus:
		sc.handlePortStatus(m)
	case *openflow.FlowRemoved:
		sc.handleFlowRemoved(m)
	case *openflow.EchoRequest:
		_ = sc.write(&openflow.EchoReply{Header: openflow.Header{Xid: m.Xid}, Data: m.Data})
	case *openflow.EchoReply:
		sc.mu.Lock()
		sc.echoMiss = 0
		sc.mu.Unlock()
		sc.echoReplies.Add(1)
		if at := sc.echoSentAt.Swap(0); at > 0 {
			sc.rtt.Observe(time.Duration(sc.driver.now().UnixNano() - at))
		}
		sc.touchLastSeen()
	case *openflow.StatsReply:
		sc.mu.Lock()
		ch := sc.pending[m.Xid]
		delete(sc.pending, m.Xid)
		sc.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	case *openflow.Error:
		sc.driver.Logf("driver: %s: switch error 0x%08x", sc.Name, m.Code)
	}
}

// drainPktin coalesces queued packet-ins into batched file-system
// deliveries (up to maxPktInBatch per transaction). It runs in the
// mailbox; the scheduled flag guarantees at most one drain is queued,
// and the re-check after clearing it closes the race against a producer
// that enqueued while the flag was still set. The claim buffer lives on
// the connection so a drain costs zero allocations of its own; the
// per-batch cost is the delivery transaction.
//
//yancvet:hotalloc
func (sc *SwitchConn) drainPktin() {
	batch := sc.pktinBatch[:0]
	for {
	collect:
		for len(batch) < maxPktInBatch {
			select {
			case pi := <-sc.pktin:
				batch = append(batch, pi)
			default:
				break collect
			}
		}
		if len(batch) > 0 {
			sc.pktinBatches.Add(1)
			//yancvet:alloc one delivery transaction per batch is the coalescing contract
			if err := sc.driver.Y.DeliverPacketInBatch(sc.driver.Region, sc.Name, batch); err != nil {
				sc.driver.Logf("driver: %s: deliver packet-in batch (%d): %v", sc.Name, len(batch), err) //yancvet:alloc error path
			}
			// Drop the packet refs so delivered messages are collectable
			// while the buffer idles between bursts.
			for i := range batch {
				batch[i] = nil
			}
			batch = batch[:0]
			continue
		}
		sc.pktinScheduled.Store(false)
		if len(sc.pktin) == 0 || !sc.pktinScheduled.CompareAndSwap(false, true) {
			return
		}
	}
}

// handlePortStatus reflects a hardware port change into the port files.
func (sc *SwitchConn) handlePortStatus(ps *openflow.PortStatus) {
	sc.mu.Lock()
	sc.portConfig[ps.Port.No] = ps.Port.Config
	sc.mu.Unlock()
	switch ps.Reason {
	case openflow.PortDeleted:
		_ = sc.proc.RemoveAll(vfs.Join(sc.Path, "ports", strconv.FormatUint(uint64(ps.Port.No), 10)))
	default:
		if err := yancfs.PopulatePort(sc.proc, sc.Path, ps.Port); err != nil {
			sc.driver.Logf("driver: %s: port status: %v", sc.Name, err)
		}
	}
}

// handleFlowRemoved deletes the corresponding flow directory when the
// hardware expires an entry, keeping the file system truthful.
func (sc *SwitchConn) handleFlowRemoved(fr *openflow.FlowRemoved) {
	key := fr.Match.Key()
	sc.mu.Lock()
	var name string
	for n, st := range sc.flows {
		if st.priority == fr.Priority && st.match.Key() == key {
			name = n
			break
		}
	}
	if name != "" {
		delete(sc.flows, name)
	}
	sc.mu.Unlock()
	if name != "" {
		_ = sc.proc.RemoveAll(vfs.Join(sc.Path, "flows", name))
	}
}

// handleWatchEvent reacts to one file-system change under the switch
// directory, demultiplexed from the driver's shared watch (mux.go) and
// serialized through the mailbox.
func (sc *SwitchConn) handleWatchEvent(ev vfs.Event) {
	switch {
	case ev.Op == vfs.OpWrite && vfs.Base(ev.Path) == yancfs.FileVersion:
		sc.syncFlow(flowNameFromPath(sc.Path, ev.Path))
	case ev.Op == vfs.OpRemove && ev.IsDir && isFlowDir(sc.Path, ev.Path):
		sc.removeFlow(vfs.Base(ev.Path))
	case ev.Op == vfs.OpRename && isFlowDir(sc.Path, ev.Path):
		// Renamed flows keep their hardware entry under the new name.
		sc.renameFlow(vfs.Base(ev.Path), vfs.Base(ev.NewPath))
	case ev.Op == vfs.OpWrite && vfs.Base(ev.Path) == yancfs.FileDoorbell && isPoutFile(sc.Path, ev.Path):
		sc.drainPacketOut()
	case ev.Op == vfs.OpWrite && vfs.Base(ev.Path) == "config.port_down" && isPortFile(sc.Path, ev.Path):
		sc.syncPortConfig(ev.Path)
	}
}

// flowNameFromPath extracts <flow> from <switch>/flows/<flow>/version.
func flowNameFromPath(switchPath, p string) string {
	rel := strings.TrimPrefix(p, switchPath+"/")
	parts := strings.Split(rel, "/")
	if len(parts) >= 2 && parts[0] == "flows" {
		return parts[1]
	}
	return ""
}

// isFlowDir reports whether p is <switch>/flows/<flow>.
func isFlowDir(switchPath, p string) bool {
	rel := strings.TrimPrefix(p, switchPath+"/")
	parts := strings.Split(rel, "/")
	return len(parts) == 2 && parts[0] == "flows"
}

// isPortFile reports whether p is <switch>/ports/<n>/<file>.
func isPortFile(switchPath, p string) bool {
	rel := strings.TrimPrefix(p, switchPath+"/")
	parts := strings.Split(rel, "/")
	return len(parts) == 3 && parts[0] == "ports"
}

// isPoutFile reports whether p is <switch>/pout/<file>.
func isPoutFile(switchPath, p string) bool {
	rel := strings.TrimPrefix(p, switchPath+"/")
	parts := strings.Split(rel, "/")
	return len(parts) == 2 && parts[0] == yancfs.DirPacketOut
}

// drainPacketOut consumes the switch's pout/ queue: each staged message
// is read by reference — the head line is a few bytes, the frame aliases
// the spooled payload block (vfs.ReadFileShared, no copy) — written to
// the control channel, and removed. Removal drops this switch's link on
// the block; the last switch to send reclaims it. Runs in the mailbox,
// keyed by the doorbell write event, so drains never race each other.
func (sc *SwitchConn) drainPacketOut() {
	p := sc.proc
	pout := vfs.Join(sc.Path, yancfs.DirPacketOut)
	entries, err := p.ReadDir(pout)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || !yancfs.IsPacketOutName(e.Name) {
			continue
		}
		msg := vfs.Join(pout, e.Name)
		head, herr := p.ReadString(vfs.Join(msg, yancfs.PacketOutHead))
		frame, ferr := p.ReadFileShared(vfs.Join(msg, yancfs.PacketOutFrame))
		if herr == nil && ferr == nil {
			po, perr := openflow.ParsePacketOutSpec(head)
			if perr != nil {
				sc.driver.Logf("driver: %s: pout %s: %v", sc.Name, e.Name, perr)
			} else {
				po.Data = frame
				if werr := sc.write(po); werr != nil {
					sc.driver.Logf("driver: %s: pout %s: %v", sc.Name, e.Name, werr)
				}
			}
		}
		//yancvet:allow errdrop consumed message; a failed unlink is retried on the next doorbell
		_ = p.RemoveAll(msg)
	}
}

// syncAllFlows pushes every committed flow directory to hardware. The
// whole table is captured in one read-transaction snapshot — O(1) lock
// acquisitions and a mutually consistent view, instead of a separate
// locked read per flow file — and the flow-mods are pushed to the switch
// after the snapshot, outside any file system lock.
func (sc *SwitchConn) syncAllFlows() {
	snaps, err := sc.driver.Y.SnapshotFlows(sc.Path)
	if err != nil {
		sc.driver.Logf("driver: %s: snapshot flows: %v", sc.Name, err)
		return
	}
	for _, fs := range snaps {
		sc.pushFlow(fs.Name, fs.Version, fs.Spec)
	}
}

// syncFlow pushes one flow directory if its committed version is newer
// than what hardware has ("changes are only sent to hardware by the
// drivers once the version has been incremented", §3.4).
func (sc *SwitchConn) syncFlow(name string) {
	if name == "" {
		return
	}
	flowPath := vfs.Join(sc.Path, "flows", name)
	version, err := yancfs.FlowVersion(sc.proc, flowPath)
	if err != nil || version == 0 {
		return // uncommitted or gone
	}
	spec, err := yancfs.ReadFlow(sc.proc, flowPath)
	if err != nil {
		sc.driver.Logf("driver: %s: read flow %s: %v", sc.Name, name, err)
		return
	}
	sc.pushFlow(name, version, spec)
}

// pushFlow sends one already-read flow to hardware if its committed
// version is newer than what hardware has.
func (sc *SwitchConn) pushFlow(name string, version uint64, spec yancfs.FlowSpec) {
	sc.mu.Lock()
	prev, known := sc.flows[name]
	if known && prev.version >= version {
		sc.mu.Unlock()
		return
	}
	sc.flows[name] = flowState{match: spec.Match, priority: spec.Priority, version: version}
	sc.mu.Unlock()

	// Identity change: remove the superseded hardware entry first.
	if known && (prev.priority != spec.Priority || !prev.match.Equal(spec.Match)) {
		_ = sc.write(&openflow.FlowMod{
			Command:  openflow.FlowDeleteStrict,
			Match:    prev.match,
			Priority: prev.priority,
			BufferID: openflow.NoBuffer,
			OutPort:  openflow.PortAny,
		})
	}
	fm := &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       spec.Match,
		Priority:    spec.Priority,
		IdleTimeout: spec.IdleTimeout,
		HardTimeout: spec.HardTimeout,
		Cookie:      spec.Cookie,
		BufferID:    openflow.NoBuffer,
		OutPort:     openflow.PortAny,
		Flags:       openflow.FlagSendFlowRem,
		Actions:     spec.Actions,
	}
	if err := sc.write(fm); err != nil {
		sc.driver.Logf("driver: %s: flow-mod: %v", sc.Name, err)
		return
	}
	if hook := sc.driver.FlowInstalledHook; hook != nil {
		hook(vfs.Join(sc.Path, "flows", name), version)
	}
}

// removeFlow deletes the hardware entry backing a removed flow directory.
func (sc *SwitchConn) removeFlow(name string) {
	sc.mu.Lock()
	st, ok := sc.flows[name]
	delete(sc.flows, name)
	sc.mu.Unlock()
	if !ok {
		return
	}
	_ = sc.write(&openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Match:    st.match,
		Priority: st.priority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortAny,
	})
}

// renameFlow transfers pushed state to the new directory name.
func (sc *SwitchConn) renameFlow(oldName, newName string) {
	sc.mu.Lock()
	if st, ok := sc.flows[oldName]; ok {
		delete(sc.flows, oldName)
		sc.flows[newName] = st
	}
	sc.mu.Unlock()
}

// syncPortConfig pushes an administrator's config.port_down write to the
// switch — but only when it differs from the hardware state, breaking the
// reflection loop with handlePortStatus.
func (sc *SwitchConn) syncPortConfig(path string) {
	portDir := vfs.Dir(path)
	no64, err := strconv.ParseUint(vfs.Base(portDir), 10, 32)
	if err != nil {
		return
	}
	no := uint32(no64)
	down, err := yancfs.PortDown(sc.proc, portDir)
	if err != nil {
		return
	}
	var want uint32
	if down {
		want = openflow.PortConfigDown
	}
	sc.mu.Lock()
	cur, known := sc.portConfig[no]
	sc.mu.Unlock()
	if known && cur&openflow.PortConfigDown == want {
		return
	}
	hw, _ := func() (openflow.PortInfo, bool) {
		for _, p := range sc.Features.Ports {
			if p.No == no {
				return p, true
			}
		}
		return openflow.PortInfo{}, false
	}()
	_ = sc.write(&openflow.PortMod{
		PortNo: no,
		HWAddr: hw.HWAddr,
		Config: want,
		Mask:   openflow.PortConfigDown,
	})
}

// handlePacketOutWrite parses the packet_out control file format:
// first line "out=<port>[,<more actions>] [in_port=<n>] [buffer_id=<id>]",
// remaining bytes are the raw frame.
func (sc *SwitchConn) handlePacketOutWrite(data []byte) error {
	head, payload, _ := strings.Cut(string(data), "\n")
	po, err := openflow.ParsePacketOutSpec(head)
	if err != nil {
		return fmt.Errorf("driver: %v: %w", err, vfs.ErrInvalid)
	}
	po.Data = []byte(payload)
	return sc.write(po)
}

// queryStats performs a synchronous stats round trip.
func (sc *SwitchConn) queryStats(req *openflow.StatsRequest) (*openflow.StatsReply, bool) {
	ch := make(chan *openflow.StatsReply, 1)
	xid := sc.conn.NewXID()
	req.Xid = xid
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil, false
	}
	sc.pending[xid] = ch
	sc.mu.Unlock()
	if err := sc.write(req); err != nil {
		sc.mu.Lock()
		delete(sc.pending, xid)
		sc.mu.Unlock()
		return nil, false
	}
	select {
	case rep := <-ch:
		return rep, true
	case <-time.After(statsTimeout): //yancvet:wallclock stats RPC timeout bounds real network I/O
		sc.mu.Lock()
		delete(sc.pending, xid)
		sc.mu.Unlock()
		return nil, false
	case <-sc.done:
		return nil, false
	}
}

// FlowCounters implements yancfs.CounterSource by querying the switch.
func (sc *SwitchConn) FlowCounters(flowName string) (packets, bytes uint64, ok bool) {
	sc.mu.Lock()
	st, known := sc.flows[flowName]
	sc.mu.Unlock()
	if !known {
		return 0, 0, false
	}
	rep, ok := sc.queryStats(&openflow.StatsRequest{Kind: openflow.StatsFlow, Match: st.match})
	if !ok {
		return 0, 0, false
	}
	for _, fl := range rep.Flows {
		if fl.Priority == st.priority && fl.Match.Equal(st.match) {
			return fl.PacketCount, fl.ByteCount, true
		}
	}
	return 0, 0, false
}

// PortCounters implements yancfs.CounterSource by querying the switch.
func (sc *SwitchConn) PortCounters(no uint32) (yancfs.PortCounterSet, bool) {
	rep, ok := sc.queryStats(&openflow.StatsRequest{Kind: openflow.StatsPort, Port: no})
	if !ok {
		return yancfs.PortCounterSet{}, false
	}
	for _, ps := range rep.Ports {
		if ps.PortNo == no {
			return yancfs.PortCounterSet{
				RxPackets: ps.RxPackets,
				TxPackets: ps.TxPackets,
				RxBytes:   ps.RxBytes,
				TxBytes:   ps.TxBytes,
				RxDropped: ps.RxDropped,
				TxDropped: ps.TxDropped,
			}, true
		}
	}
	return yancfs.PortCounterSet{}, false
}
