// Package switchsim implements a simulated OpenFlow switch dataplane and
// the network fabric connecting switches and hosts. It stands in for the
// hardware switches the paper's prototype controlled: it keeps real flow
// tables with priorities, wildcards, and counters, generates packet-in
// messages on table misses, applies action lists to real Ethernet frames,
// and speaks the OpenFlow wire protocol (1.0 or 1.3) to whatever driver
// connects to it.
package switchsim

import (
	"slices"
	"sort"
	"time"

	"yanc/internal/openflow"
)

// FlowEntry is one installed flow-table entry with its counters.
type FlowEntry struct {
	Match       openflow.Match
	Priority    uint16
	Actions     []openflow.Action
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	Flags       uint16

	Packets  uint64
	Bytes    uint64
	Created  time.Time
	LastUsed time.Time
}

// Table is a single flow table: entries ordered by descending priority,
// ties broken by insertion order (first inserted wins), which is how
// hardware tables behave for overlapping same-priority entries. The
// entries of one priority form a contiguous band, so a strict lookup
// (match + priority) binary-searches for the band and compares match
// identities only inside it.
type Table struct {
	entries []*FlowEntry
}

// NewTable returns an empty flow table.
func NewTable() *Table { return &Table{} }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns the entries in match order (descending priority).
func (t *Table) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// band returns the index range [lo, hi) of the entries with the given
// priority; when there are none, lo == hi is where such an entry goes.
func (t *Table) band(priority uint16) (lo, hi int) {
	lo = sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Priority <= priority })
	hi = lo + sort.Search(len(t.entries)-lo, func(i int) bool { return t.entries[lo+i].Priority < priority })
	return lo, hi
}

// find returns the index of the entry with exactly the given match and
// priority (the strict identity used by add, modify-strict and
// delete-strict), or -1 and the end of the priority's band.
func (t *Table) find(m openflow.Match, priority uint16) (idx, end int) {
	lo, hi := t.band(priority)
	id := m.Identity()
	for i := lo; i < hi; i++ {
		if t.entries[i].Match.Identity() == id {
			return i, hi
		}
	}
	return -1, hi
}

// Add installs an entry, replacing an entry with identical match and
// priority (OpenFlow add-overlap semantics with OFPFF_CHECK_OVERLAP off).
// A replacement keeps its predecessor's slot; a new entry goes last in
// its priority band.
func (t *Table) Add(e *FlowEntry) {
	i, end := t.find(e.Match, e.Priority)
	if i >= 0 {
		t.entries[i] = e
		return
	}
	t.entries = slices.Insert(t.entries, end, e)
}

// Modify updates the actions of all entries covered by m (non-strict
// flow-modify). Returns the number of entries changed.
func (t *Table) Modify(m openflow.Match, actions []openflow.Action) int {
	n := 0
	for _, e := range t.entries {
		if m.Covers(e.Match) {
			e.Actions = append([]openflow.Action(nil), actions...)
			n++
		}
	}
	return n
}

// ModifyStrict updates the entry with exactly the given match+priority.
func (t *Table) ModifyStrict(m openflow.Match, priority uint16, actions []openflow.Action) int {
	i, _ := t.find(m, priority)
	if i < 0 {
		return 0
	}
	t.entries[i].Actions = append([]openflow.Action(nil), actions...)
	return 1
}

// Delete removes all entries covered by m (non-strict). outPort, when not
// PortAny, further restricts deletion to entries with an output action to
// that port. Removed entries are returned so the caller can emit
// flow-removed notifications.
func (t *Table) Delete(m openflow.Match, outPort uint32) []*FlowEntry {
	var removed []*FlowEntry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if m.Covers(e.Match) && outputsTo(e, outPort) {
			removed = append(removed, e)
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	return removed
}

// DeleteStrict removes the entry with exactly the given match+priority.
func (t *Table) DeleteStrict(m openflow.Match, priority uint16, outPort uint32) []*FlowEntry {
	i, _ := t.find(m, priority)
	if i < 0 || !outputsTo(t.entries[i], outPort) {
		return nil
	}
	e := t.entries[i]
	t.entries = slices.Delete(t.entries, i, i+1)
	return []*FlowEntry{e}
}

func outputsTo(e *FlowEntry, port uint32) bool {
	if port == openflow.PortAny {
		return true
	}
	for _, a := range e.Actions {
		if a.Type == openflow.ActOutput && a.Port == port {
			return true
		}
	}
	return false
}

// Lookup returns the highest-priority entry matching the packet, or nil.
func (t *Table) Lookup(pf *openflow.PacketFields) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.MatchesPacket(pf) {
			return e
		}
	}
	return nil
}

// Expire removes entries whose idle or hard timeout has elapsed at time
// now, returning them paired with the removal reason.
func (t *Table) Expire(now time.Time) []ExpiredFlow {
	var expired []ExpiredFlow
	kept := t.entries[:0]
	for _, e := range t.entries {
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Created) >= time.Duration(e.HardTimeout)*time.Second:
			expired = append(expired, ExpiredFlow{Entry: e, Reason: openflow.RemovedHardTimeout})
		case e.IdleTimeout > 0 && now.Sub(e.LastUsed) >= time.Duration(e.IdleTimeout)*time.Second:
			expired = append(expired, ExpiredFlow{Entry: e, Reason: openflow.RemovedIdleTimeout})
		default:
			kept = append(kept, e)
		}
	}
	t.entries = kept
	return expired
}

// ExpiredFlow pairs a removed entry with its removal reason.
type ExpiredFlow struct {
	Entry  *FlowEntry
	Reason uint8
}
