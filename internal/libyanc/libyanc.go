// Package libyanc is the fastpath library of §8.1. The plain yanc API is
// file I/O: writing a flow costs one "system call" (a counted VFS entry
// point) per field, and pushing flows to thousands of switches costs tens
// of thousands of such calls. libyanc provides
//
//   - FlowRing, a flow-mod submission/completion ring: flows for any
//     number of switches commit in adaptive batches, each under one
//     transaction and one event flush, without any per-field call
//     (Client.PutFlow is its synchronous one-flow form);
//   - a zero-copy packet-in ring: the driver publishes packet buffers by
//     reference and any number of applications consume them without the
//     event-directory copies of §3.5.
//
// The result is bit-for-bit the same file-system state and the same
// driver behaviour — only the cost changes, which is exactly what the
// benchmarks E12/E13 measure.
package libyanc

import (
	"sync"

	"yanc/internal/openflow"
	"yanc/internal/vfs"
	"yanc/internal/yancfs"
)

// Client is a fastpath handle onto one yanc file system.
type Client struct {
	y *yancfs.FS
}

// New creates a fastpath client.
func New(y *yancfs.FS) *Client { return &Client{y: y} }

// PutFlow atomically writes and commits one complete flow.
func (c *Client) PutFlow(flowPath string, spec yancfs.FlowSpec) (uint64, error) {
	var version uint64
	err := c.y.VFS().WithTx(func(tx *vfs.Tx) error {
		v, err := c.y.PutFlowTx(tx, flowPath, spec)
		version = v
		return err
	})
	return version, err
}

// PacketInMsg is one fastpath packet-in: the switch it came from plus the
// message, shared by reference among all consumers (zero copy).
type PacketInMsg struct {
	Switch string
	PI     *openflow.PacketIn
}

// Ring is a single-producer multi-consumer ring buffer for packet-in
// messages. Slow consumers are lapped and observe a drop count rather
// than stalling the producer, mirroring the shared-memory design libyanc
// proposes for "efficient, zero-copy passing of bulk data".
type Ring struct {
	mu    sync.Mutex
	cond  *sync.Cond
	slots []PacketInMsg
	seq   uint64 // next sequence to be written
	close bool
}

// NewRing creates a ring with the given capacity (rounded up to 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	r := &Ring{slots: make([]PacketInMsg, capacity)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Publish appends a message, overwriting the oldest slot when full.
func (r *Ring) Publish(m PacketInMsg) {
	r.mu.Lock()
	r.slots[r.seq%uint64(len(r.slots))] = m
	r.seq++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Close wakes all blocked cursors; subsequent Next calls return ok=false
// once drained.
func (r *Ring) Close() {
	r.mu.Lock()
	r.close = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Cursor is one consumer's position in the ring.
type Cursor struct {
	ring    *Ring
	next    uint64
	Dropped uint64 // messages lost to lapping
}

// NewCursor starts a consumer at the current head (it sees only messages
// published after this call).
func (r *Ring) NewCursor() *Cursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Cursor{ring: r, next: r.seq}
}

// Next returns the next message. With block=true it waits for one; with
// block=false it returns ok=false immediately when none is pending. If
// the consumer was lapped, Dropped is advanced and reading resumes at the
// oldest retained message.
func (c *Cursor) Next(block bool) (PacketInMsg, bool) {
	r := c.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	for c.next == r.seq {
		if r.close || !block {
			return PacketInMsg{}, false
		}
		r.cond.Wait()
	}
	cap64 := uint64(len(r.slots))
	if r.seq-c.next > cap64 {
		c.Dropped += r.seq - c.next - cap64
		c.next = r.seq - cap64
	}
	m := r.slots[c.next%cap64]
	c.next++
	return m, true
}

// Pending reports how many messages are ready for this cursor.
func (c *Cursor) Pending() int {
	c.ring.mu.Lock()
	defer c.ring.mu.Unlock()
	d := c.ring.seq - c.next
	if d > uint64(len(c.ring.slots)) {
		d = uint64(len(c.ring.slots))
	}
	return int(d)
}
