package vfs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of fixed log-scale latency buckets. Bucket i
// covers durations in [2^i, 2^(i+1)) nanoseconds (bucket 0 also absorbs
// 0ns), so 40 buckets span one nanosecond to about nine minutes — wide
// enough for any in-process operation without ever reallocating.
const HistBuckets = 40

// Histogram is a fixed-bucket log-scale latency histogram. All fields are
// atomics, so Observe is lock-free and safe to call from any goroutine —
// the near-zero-overhead property the VFS hot paths need, mirroring how
// statCounters already count operations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

// histBucketOf maps a duration in nanoseconds to its bucket index.
func histBucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b > 0 {
		b--
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// HistBucketBound returns the exclusive upper bound of bucket i.
func HistBucketBound(i int) time.Duration {
	if i >= 63 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1) << uint(i+1))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[histBucketOf(ns)].Add(1)
}

// Snapshot returns a consistent-enough copy for reporting (buckets are
// read individually; the histogram may be concurrently updated).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [HistBuckets]uint64
}

// Sub returns the delta between two snapshots (s - prev), the primitive a
// benchmark collector uses to attribute latency to one experiment window.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count - prev.Count,
		Sum:   s.Sum - prev.Sum,
		Max:   s.Max, // max is not subtractable; keep the later high-water mark
	}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// Avg returns the mean observed duration.
func (s HistSnapshot) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// reporting the upper bound of the bucket containing the target rank,
// clamped to Max: no sample exceeds Max, so neither may an estimate.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return min(HistBucketBound(i), s.Max)
		}
	}
	return s.Max
}

// LatencyOp names one instrumented VFS entry point. The set mirrors the
// OpStats categories §8.1's cost model counts, minus internal lookups.
type LatencyOp uint8

// Instrumented operations.
const (
	LatOpen LatencyOp = iota
	LatRead
	LatWrite
	LatMkdir
	LatRemove
	LatRename
	LatStat
	LatReadDir
	NumLatencyOps // sentinel: number of instrumented ops
)

func (op LatencyOp) String() string {
	switch op {
	case LatOpen:
		return "open"
	case LatRead:
		return "read"
	case LatWrite:
		return "write"
	case LatMkdir:
		return "mkdir"
	case LatRemove:
		return "remove"
	case LatRename:
		return "rename"
	case LatStat:
		return "stat"
	case LatReadDir:
		return "readdir"
	default:
		return "unknown"
	}
}

// latencySet holds one histogram per instrumented op.
type latencySet struct {
	hist [NumLatencyOps]Histogram
}

// latStart begins a latency measurement at an op entry point. Latency is
// a measurement of real elapsed time — it deliberately bypasses the fake
// clock tests install with SetClock, which is why every entry point says
// `defer fs.observe(op, latStart())` instead of reading fs.clock.
func latStart() time.Time {
	return time.Now() //yancvet:wallclock latency measures real elapsed time
}

// observe records the latency of op measured from start (obtained from
// latStart). time.Since reads the monotonic clock.
func (fs *FS) observe(op LatencyOp, start time.Time) {
	fs.lat.hist[op].Observe(time.Since(start)) //yancvet:wallclock monotonic elapsed since latStart
}

// LatencySnapshot is a point-in-time copy of every op histogram.
type LatencySnapshot struct {
	Ops [NumLatencyOps]HistSnapshot
}

// Latency snapshots all per-op latency histograms.
func (fs *FS) Latency() LatencySnapshot {
	var s LatencySnapshot
	for i := range fs.lat.hist {
		s.Ops[i] = fs.lat.hist[i].Snapshot()
	}
	return s
}

// Sub returns the per-op delta (s - prev).
func (s LatencySnapshot) Sub(prev LatencySnapshot) LatencySnapshot {
	var out LatencySnapshot
	for i := range s.Ops {
		out.Ops[i] = s.Ops[i].Sub(prev.Ops[i])
	}
	return out
}

// Total aggregates every op histogram into one snapshot.
func (s LatencySnapshot) Total() HistSnapshot {
	var out HistSnapshot
	for i := range s.Ops {
		o := s.Ops[i]
		out.Count += o.Count
		out.Sum += o.Sum
		if o.Max > out.Max {
			out.Max = o.Max
		}
		for b := range o.Buckets {
			out.Buckets[b] += o.Buckets[b]
		}
	}
	return out
}

// Render writes the snapshot in the .proc/vfs/latency table format: one
// line per op with count, avg, p50, p99, and max columns.
func (s LatencySnapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s\n", "op", "count", "avg", "p50", "p99", "max")
	for i := range s.Ops {
		o := s.Ops[i]
		fmt.Fprintf(&b, "%-8s %10d %10v %10v %10v %10v\n",
			LatencyOp(i), o.Count, o.Avg(), o.Quantile(0.50), o.Quantile(0.99), o.Max)
	}
	return b.String()
}
