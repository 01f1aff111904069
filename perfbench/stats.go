package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a set of latency samples kept in full, so every quantile is
// exact: nearest rank over the sorted samples, never a histogram bucket
// bound.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least q·n samples at or below it. It returns 0 for an empty set.
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return d.xs[nearestRank(q, len(d.xs))]
}

// nearestRank is the 0-based index of the q-quantile among n sorted
// samples.
func nearestRank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func (d *dist) max() float64 { return d.quantile(1) }

// check is the quantile self-check: every reported quantile must lie
// within the observed range and the quantiles must not decrease.
func (d *dist) check() error {
	if len(d.xs) == 0 {
		return nil
	}
	lo, p50, p90, p99, hi := d.quantile(0), d.quantile(0.5), d.quantile(0.9), d.quantile(0.99), d.max()
	if !(lo <= p50 && p50 <= p90 && p90 <= p99 && p99 <= hi) {
		return fmt.Errorf("quantiles out of order: min %g p50 %g p90 %g p99 %g max %g", lo, p50, p90, p99, hi)
	}
	return nil
}

// summary is the human-readable line for one distribution, with its
// sample count.
func (d *dist) summary(name, unit string) string {
	return fmt.Sprintf("%-28s n=%-7d p50=%-10.4g p90=%-10.4g p99=%-10.4g max=%-10.4g %s",
		name, d.n(), d.quantile(0.5), d.quantile(0.9), d.quantile(0.99), d.max(), unit)
}

// median of a small set of values (set-up repetitions).
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
