package main

import (
	"fmt"
	"sort"

	"yanc/internal/openflow"
	"yanc/internal/yancfs"
)

// oracleTimeout bounds how long the tables may take to converge after
// the last op settled (deletes are not tracked one by one).
const oracleTimeout = 10e9

type flowKey struct {
	match    string
	priority uint16
}

// compareTable checks one switch: its flow table must hold exactly the
// committed flows of its /switches/<sw>/flows directory — the same
// (match, priority) identities, no extras, no duplicates, and for each
// the cookie of a committed version (so a stale install shows).
func compareTable(sw string, committed []yancfs.FlowSnap, table []openflow.FlowStats) []string {
	want := make(map[flowKey]map[uint64]bool, len(committed))
	for _, f := range committed {
		k := flowKey{f.Spec.Match.Key(), f.Spec.Priority}
		if want[k] == nil {
			want[k] = make(map[uint64]bool, 1)
		}
		want[k][f.Spec.Cookie] = true
	}
	var problems []string
	got := make(map[flowKey]uint64, len(table))
	for _, e := range table {
		k := flowKey{e.Match.Key(), e.Priority}
		if _, dup := got[k]; dup {
			problems = append(problems, fmt.Sprintf("%s: duplicate table entry %s priority %d", sw, k.match, k.priority))
		}
		got[k] = e.Cookie
	}
	for k, cookies := range want {
		c, ok := got[k]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: committed flow %s priority %d missing from the table", sw, k.match, k.priority))
		case !cookies[c]:
			problems = append(problems, fmt.Sprintf("%s: flow %s priority %d has stale cookie %d", sw, k.match, k.priority, c))
		}
	}
	for k := range got {
		if want[k] == nil {
			problems = append(problems, fmt.Sprintf("%s: table entry %s priority %d has no committed flow", sw, k.match, k.priority))
		}
	}
	sort.Strings(problems)
	return problems
}

// oracle compares every switch's table with the committed flows and
// returns the problems and the number of committed flows.
func (r *rig) oracle() (problems []string, resident int) {
	y := r.ctrl.FS()
	for s, sw := range r.sws {
		name := fmt.Sprintf("sw%d", s+1)
		committed, err := y.SnapshotFlows("/switches/" + name)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: snapshot flows: %v", name, err))
			continue
		}
		resident += len(committed)
		problems = append(problems, compareTable(name, committed, sw.FlowStats(openflow.Match{}))...)
	}
	return problems, resident
}

// converge polls the oracle until the tables match or the timeout
// passes, and returns the final problems.
func (r *rig) converge() (problems []string, resident int) {
	deadline := r.rec.now() + oracleTimeout
	for {
		problems, resident = r.oracle()
		if len(problems) == 0 || r.rec.now() > deadline {
			return problems, resident
		}
		r.rec.waitUntil(r.rec.now() + 20e6)
	}
}
