// Package metrics provides the measurement vocabulary of the paper's
// evaluation (§V): per-request timers for inference/invocation/request
// times, percentile summaries (median with 5th/95th percentile error
// bars, as in Figs. 3-4), throughput series (Fig. 7) and makespan.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic event counter — the unit of
// the serving-layer operational metrics (cache hits/misses/evictions,
// collapsed duplicate dispatches) that sit alongside the paper's
// duration series.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Series is a concurrency-safe collection of duration samples for one
// named quantity (e.g. "invocation_time" of one servable).
type Series struct {
	Name string

	mu      sync.Mutex
	samples []time.Duration
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series {
	return &Series{Name: name}
}

// Add records one sample.
func (s *Series) Add(d time.Duration) {
	s.mu.Lock()
	s.samples = append(s.samples, d)
	s.mu.Unlock()
}

// Snapshot returns a copy of the recorded samples.
func (s *Series) Snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, len(s.samples))
	copy(out, s.samples)
	return out
}

// Stats computes the summary used throughout §V.
func (s *Series) Stats() Stats {
	return Compute(s.Snapshot())
}

// Stats summarizes a sample set the way the paper reports results:
// median with 5th/95th percentile error bars, plus mean/min/max.
type Stats struct {
	N      int
	Median time.Duration
	P5     time.Duration
	P95    time.Duration
	Mean   time.Duration
	Min    time.Duration
	Max    time.Duration
	Stddev time.Duration
}

// Compute summarizes samples. An empty input yields a zero Stats.
func Compute(samples []time.Duration) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var sum float64
	for _, d := range sorted {
		sum += float64(d)
	}
	mean := sum / float64(len(sorted))
	var sq float64
	for _, d := range sorted {
		diff := float64(d) - mean
		sq += diff * diff
	}
	std := math.Sqrt(sq / float64(len(sorted)))

	return Stats{
		N:      len(sorted),
		Median: Percentile(sorted, 50),
		P5:     Percentile(sorted, 5),
		P95:    Percentile(sorted, 95),
		Mean:   time.Duration(mean),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Stddev: time.Duration(std),
	}
}

// Percentile returns the p-th percentile (0-100) of an ascending-sorted
// slice using linear interpolation between closest ranks.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Millis renders a duration as fractional milliseconds, the unit the
// paper's figures use.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Throughput is requests per second for n requests completed in makespan.
func Throughput(n int, makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(n) / makespan.Seconds()
}
