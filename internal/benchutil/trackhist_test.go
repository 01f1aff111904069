package benchutil

import (
	"math/rand"
	"testing"
	"time"

	"yanc/internal/vfs"
)

// bucketBounds returns the [lo, hi) nanosecond range of bucket i, per
// the documented vfs.Histogram contract (bucket i covers [2^i, 2^(i+1))
// with bucket 0 also absorbing 0).
func bucketBounds(i int) (lo, hi uint64) {
	if i > 0 {
		lo = uint64(vfs.HistBucketBound(i - 1))
	}
	return lo, uint64(vfs.HistBucketBound(i))
}

// boundaryCases enumerates the latencies most likely to land in the
// wrong bucket: zero, one, and ±1 around every power of two, plus
// seeded random fill.
func boundaryCases() []time.Duration {
	ds := []time.Duration{0, 1, 2, 3}
	for k := 1; k < 62; k++ {
		v := int64(1) << uint(k)
		ds = append(ds, time.Duration(v-1), time.Duration(v), time.Duration(v+1))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ds = append(ds, time.Duration(rng.Int63n(int64(10*time.Minute))))
	}
	return ds
}

// TestTrackingHistogramBucketBoundaries: every observed latency lands
// in exactly one bucket, and that bucket's [lo, hi) range contains it
// (the last bucket absorbs overflow). Each case uses a fresh histogram
// so the incremented bucket is unambiguous.
func TestTrackingHistogramBucketBoundaries(t *testing.T) {
	for _, d := range boundaryCases() {
		th := NewTrackingHistogram()
		th.Observe(d)
		s := th.Snapshot()
		hit := -1
		var total uint64
		for i, c := range s.Buckets {
			total += c
			if c > 0 {
				if hit != -1 {
					t.Fatalf("latency %v landed in buckets %d and %d", d, hit, i)
				}
				hit = i
			}
		}
		if total != 1 || hit == -1 {
			t.Fatalf("latency %v: bucket total %d, hit %d", d, total, hit)
		}
		lo, hi := bucketBounds(hit)
		ns := uint64(d)
		last := hit == vfs.HistBuckets-1
		if ns < lo || (ns >= hi && !last) {
			t.Fatalf("latency %v in bucket %d [%d, %d)", d, hit, lo, hi)
		}
		if s.Min != d || s.Max != d || s.Count != 1 || s.Sum != d {
			t.Fatalf("latency %v: snapshot %+v", d, s)
		}
	}
}

// TestTrackingHistogramMergeEqualsUnion: merge(hist(A), hist(B)) must
// equal hist(A ∪ B) in every field, for seeded random splits including
// the empty-side edge cases.
func TestTrackingHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(400)
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(time.Minute)))
		}
		cut := 0
		if n > 0 {
			cut = rng.Intn(n + 1)
		}
		a, b, u := NewTrackingHistogram(), NewTrackingHistogram(), NewTrackingHistogram()
		for i, d := range samples {
			if i < cut {
				a.Observe(d)
			} else {
				b.Observe(d)
			}
			u.Observe(d)
		}
		merged := a.Snapshot().Merge(b.Snapshot())
		union := u.Snapshot()
		if merged != union {
			t.Fatalf("trial %d (n=%d cut=%d): merged %+v != union %+v", trial, n, cut, merged, union)
		}
		// Merge must be symmetric too.
		if rev := b.Snapshot().Merge(a.Snapshot()); rev != union {
			t.Fatalf("trial %d: reverse merge %+v != union %+v", trial, rev, union)
		}
	}
}

// TestTrackingHistogramReport sanity-checks the JSON form: bucket
// counts cover every sample, bounds nest, and headline stats order.
func TestTrackingHistogramReport(t *testing.T) {
	th := NewTrackingHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		th.Observe(time.Duration(rng.Int63n(int64(time.Second))) + time.Microsecond)
	}
	r := th.Snapshot().Report()
	if r.Count != 1000 {
		t.Fatalf("count %d", r.Count)
	}
	var total uint64
	for _, b := range r.Buckets {
		if b.LoNS >= b.HiNS {
			t.Fatalf("bucket bounds [%d, %d)", b.LoNS, b.HiNS)
		}
		total += b.Count
	}
	if total != r.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, r.Count)
	}
	if !(r.MinNS <= r.P50NS && r.P50NS <= r.P90NS && r.P90NS <= r.P99NS) {
		t.Fatalf("quantiles out of order: %+v", r)
	}
	if r.MaxNS < r.AvgNS || r.MinNS > r.AvgNS {
		t.Fatalf("avg outside [min, max]: %+v", r)
	}
}

// TestQuantileNeverExceedsMax: a quantile estimate is a bucket's upper
// bound, which can lie far above every sample; it must be clamped to
// the observed Max on a plain snapshot, on a Sub window delta, and on a
// merged tracking histogram. The samples share one bucket [512, 1024)
// and top out at 800, so an unclamped estimate reads 1024.
func TestQuantileNeverExceedsMax(t *testing.T) {
	var plain vfs.Histogram
	for _, d := range []time.Duration{600, 700, 800} {
		plain.Observe(d)
	}

	var windowed vfs.Histogram
	windowed.Observe(600)
	before := windowed.Snapshot()
	windowed.Observe(700)
	windowed.Observe(800)

	a, b := NewTrackingHistogram(), NewTrackingHistogram()
	a.Observe(600)
	a.Observe(650)
	b.Observe(700)
	b.Observe(800)

	cases := []struct {
		name string
		s    vfs.HistSnapshot
	}{
		{"plain", plain.Snapshot()},
		{"sub delta", windowed.Snapshot().Sub(before)},
		{"merged", a.Snapshot().Merge(b.Snapshot()).HistSnapshot},
	}
	for _, c := range cases {
		if c.s.Max != 800 {
			t.Fatalf("%s: max = %v, want 800ns", c.name, c.s.Max)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if got := c.s.Quantile(q); got > c.s.Max || got < 600 {
				t.Errorf("%s: Quantile(%v) = %v, want within [600ns, max %v]", c.name, q, got, c.s.Max)
			}
		}
	}
}
