package driver

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"yanc/internal/backoff"
	"yanc/internal/faultnet"
	"yanc/internal/openflow"
	"yanc/internal/switchsim"
	"yanc/internal/yancfs"
)

// TestEchoProbesDetectBlackholedSwitch is the headline chaos scenario:
// the control connection of a live switch is blackholed (writes swallowed,
// reads stalled — TCP itself never reports an error), and the driver's
// echo probes are the only thing that can notice. The status file must
// flip to disconnected within the miss window; after the partition heals
// and the switch redials, the flow table must be re-pushed.
func TestEchoProbesDetectBlackholedSwitch(t *testing.T) {
	base := runtime.NumGoroutine()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	d.EchoInterval = 20 * time.Millisecond
	d.EchoMisses = 3

	inj := faultnet.New(1)
	ln, err := inj.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = d.Serve(ln) }()

	n := switchsim.NewNetwork()
	n.AddSwitch(1, "sw1", openflow.Version10, 2)
	sw := n.Switch(1)
	stop := make(chan struct{})
	dialDone := make(chan struct{})
	go func() {
		defer close(dialDone)
		sw.DialRetry(ln.Addr().String(),
			backoff.Policy{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: -1},
			stop, nil)
	}()

	p := y.Root()
	eventually(t, "initial attach", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "connected"
	})
	m, _ := openflow.ParseMatch("in_port=1")
	if _, err := yancfs.WriteFlow(p, "/switches/sw1/flows/f", yancfs.FlowSpec{
		Match: m, Priority: 5, Actions: []openflow.Action{openflow.Output(2)},
	}); err != nil {
		t.Fatal(err)
	}
	eventually(t, "flow install", func() bool { return sw.FlowCount() == 1 })
	if !p.Exists("/switches/sw1/last_seen") {
		t.Fatal("last_seen missing on a live connection")
	}
	modsBefore := sw.FlowModCount()

	// Blackhole the existing control channel and refuse fresh ones, so
	// the only detection signal is the missed echoes.
	inj.RejectAccepts(true)
	inj.Partition()
	detect := time.Now()
	eventually(t, "echo-driven teardown", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "disconnected"
	})
	// Detection must come from the miss window ((misses+1) probe ticks),
	// not some multi-second transport timeout.
	if elapsed := time.Since(detect); elapsed > 2*time.Second {
		t.Fatalf("detection took %v, want about %v",
			elapsed, time.Duration(d.EchoMisses+1)*d.EchoInterval)
	}

	inj.Heal()
	inj.RejectAccepts(false)
	eventually(t, "reattach after heal", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "connected"
	})
	// The committed flow outlived the connection and was re-pushed to the
	// (empty-tabled, in a real outage possibly power-cycled) switch.
	eventually(t, "flow resync", func() bool {
		return sw.FlowModCount() > modsBefore && sw.FlowCount() == 1
	})

	close(stop)
	ln.Close()
	<-serveDone
	d.Close()
	<-dialDone
	eventually(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
}

// TestEchoRepliesHoldConnectionOpen: a healthy switch answering probes
// must never be torn down, and last_seen keeps advancing.
func TestEchoRepliesHoldConnectionOpen(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	d.EchoInterval = 10 * time.Millisecond
	d.EchoMisses = 2
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = d.Serve(ln) }()
	defer ln.Close()

	n := switchsim.NewNetwork()
	n.AddSwitch(1, "sw1", openflow.Version10, 2)
	stop := make(chan struct{})
	defer close(stop)
	go n.Switch(1).DialRetry(ln.Addr().String(), backoff.Policy{Min: 5 * time.Millisecond}, stop, nil)

	p := y.Root()
	eventually(t, "attach", func() bool {
		s, _ := p.ReadString("/switches/sw1/status")
		return s == "connected"
	})
	first, _ := p.ReadString("/switches/sw1/last_seen")
	// Outlive several full miss windows.
	time.Sleep(10 * time.Duration(d.EchoMisses) * d.EchoInterval)
	if s, _ := p.ReadString("/switches/sw1/status"); s != "connected" {
		t.Fatalf("healthy switch torn down: status %q", s)
	}
	eventually(t, "last_seen advances", func() bool {
		now, _ := p.ReadString("/switches/sw1/last_seen")
		return now != "" && now >= first
	})
}

// fakeClock is a mutex-guarded settable time source safe to share between
// the test and the driver's goroutines.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// TestLastSeenUsesFSClock is the regression test for last_seen being
// stamped from the wall clock instead of the file-system clock: under
// simulated time (vfs.FS.SetClock) the staleness judgement chaos tests
// make against last_seen was inconsistent — inode mtimes moved with the
// fake clock while the file's content moved with real time. The driver
// must route the timestamp through the FS clock.
func TestLastSeenUsesFSClock(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{now: time.Date(2031, 5, 4, 3, 2, 1, 0, time.UTC)}
	y.VFS().SetClock(clk.Now)

	d := New(y)
	d.EchoInterval = 5 * time.Millisecond
	d.EchoMisses = 100 // never tear down during the test
	defer d.Close()

	n := switchsim.NewNetwork()
	n.AddSwitch(1, "sw1", openflow.Version10, 2)
	a, b := net.Pipe()
	go func() { _ = n.Switch(1).ServeController(b) }()
	if _, err := d.Attach(a); err != nil {
		t.Fatal(err)
	}

	p := y.Root()
	eventually(t, "last_seen written", func() bool {
		return p.Exists("/switches/sw1/last_seen")
	})
	want := strconv.FormatInt(clk.Now().Unix(), 10)
	got, err := p.ReadString("/switches/sw1/last_seen")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("last_seen = %q, want fake-clock time %q: driver bypassed the FS clock", got, want)
	}

	// Advance simulated time; echo replies must move last_seen with it.
	clk.Set(clk.Now().Add(90 * time.Second))
	want = strconv.FormatInt(clk.Now().Unix(), 10)
	eventually(t, "last_seen tracks the fake clock", func() bool {
		got, _ := p.ReadString("/switches/sw1/last_seen")
		return got == want
	})
}

// TestLastSeenUsesClockOverride: an explicit Driver.Clock takes
// precedence over the file-system clock.
func TestLastSeenUsesClockOverride(t *testing.T) {
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	override := time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC)
	d := New(y)
	d.Clock = func() time.Time { return override }
	d.EchoInterval = 0 // attach stamps last_seen once; that is enough
	defer d.Close()

	n := switchsim.NewNetwork()
	n.AddSwitch(1, "sw1", openflow.Version10, 2)
	a, b := net.Pipe()
	go func() { _ = n.Switch(1).ServeController(b) }()
	if _, err := d.Attach(a); err != nil {
		t.Fatal(err)
	}
	p := y.Root()
	want := strconv.FormatInt(override.Unix(), 10)
	eventually(t, "last_seen follows Clock override", func() bool {
		got, _ := p.ReadString("/switches/sw1/last_seen")
		return got == want
	})
}

// TestChaosTCPTeardownNoLeak: every switch attached through Serve owns
// one reader goroutine parked on its socket; Driver.Close must end all
// of them, so the goroutine count returns to its baseline once the
// switches and the listener are gone.
func TestChaosTCPTeardownNoLeak(t *testing.T) {
	const nSwitches = 32
	base := runtime.NumGoroutine()
	y, err := yancfs.New()
	if err != nil {
		t.Fatal(err)
	}
	d := New(y)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = d.Serve(ln) }()

	n := switchsim.NewNetwork()
	var dials sync.WaitGroup
	for i := 1; i <= nSwitches; i++ {
		n.AddSwitch(uint64(i), fmt.Sprintf("sw%d", i), openflow.Version13, 2)
		sw := n.Switch(uint64(i))
		dials.Add(1)
		go func() {
			defer dials.Done()
			_ = sw.Dial(ln.Addr().String())
		}()
	}
	p := y.Root()
	eventually(t, "all switches connected", func() bool {
		for i := 1; i <= nSwitches; i++ {
			if s, _ := p.ReadString(fmt.Sprintf("/switches/sw%d/status", i)); s != "connected" {
				return false
			}
		}
		return true
	})

	d.Close()
	// Each switch sees EOF once the driver closes its socket.
	dialsDone := make(chan struct{})
	go func() { dials.Wait(); close(dialsDone) }()
	select {
	case <-dialsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("switches still connected after Driver.Close")
	}
	ln.Close()
	<-serveDone
	eventually(t, "goroutines drained", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+3
	})
}
