package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestComputeEmpty(t *testing.T) {
	st := Compute(nil)
	if st.N != 0 || st.Median != 0 {
		t.Fatalf("empty compute should be zero, got %+v", st)
	}
}

func TestComputeSingle(t *testing.T) {
	st := Compute([]time.Duration{42 * time.Millisecond})
	if st.Median != 42*time.Millisecond || st.P5 != 42*time.Millisecond || st.P95 != 42*time.Millisecond {
		t.Fatalf("single-sample stats wrong: %+v", st)
	}
	if st.Min != st.Max || st.Min != 42*time.Millisecond {
		t.Fatalf("min/max wrong: %+v", st)
	}
}

func TestComputeKnownDistribution(t *testing.T) {
	// 1..100 ms: median should be 50.5ms, p5 ~ 5.95ms, p95 ~ 95.05ms.
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*time.Millisecond)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	st := Compute(samples)
	if st.Median < 50*time.Millisecond || st.Median > 51*time.Millisecond {
		t.Errorf("median out of range: %v", st.Median)
	}
	if st.P5 < 5*time.Millisecond || st.P5 > 7*time.Millisecond {
		t.Errorf("p5 out of range: %v", st.P5)
	}
	if st.P95 < 94*time.Millisecond || st.P95 > 96*time.Millisecond {
		t.Errorf("p95 out of range: %v", st.P95)
	}
	if st.Mean != 50500*time.Microsecond {
		t.Errorf("mean wrong: %v", st.Mean)
	}
}

func TestPercentileBounds(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5}
	if Percentile(sorted, -5) != 1 {
		t.Error("p<0 should clamp to min")
	}
	if Percentile(sorted, 200) != 5 {
		t.Error("p>100 should clamp to max")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v % 1e9)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7.3 {
			v := Percentile(samples, p)
			if v < prev {
				return false
			}
			if v < samples[0] || v > samples[len(samples)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compute is permutation-invariant.
func TestComputePermutationInvariant(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]time.Duration, len(raw))
		for i, v := range raw {
			a[i] = time.Duration(v)
		}
		b := make([]time.Duration, len(a))
		copy(b, a)
		rand.New(rand.NewSource(seed)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		sa, sb := Compute(a), Compute(b)
		return sa == sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesConcurrentAdd(t *testing.T) {
	s := NewSeries("x")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Add(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if n := len(s.Snapshot()); n != 800 {
		t.Fatalf("want 800 samples, got %d", n)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewSeries("c")
	s.Add(time.Second)
	snap := s.Snapshot()
	snap[0] = 0
	if s.Snapshot()[0] != time.Second {
		t.Fatal("Snapshot must return a copy")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, time.Second); got != 100 {
		t.Fatalf("want 100 rps, got %v", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("zero makespan should yield 0, got %v", got)
	}
	if got := Throughput(5000, 10*time.Second); got != 500 {
		t.Fatalf("want 500 rps, got %v", got)
	}
}

func TestMillis(t *testing.T) {
	if Millis(1500*time.Microsecond) != 1.5 {
		t.Fatalf("Millis(1.5ms) = %v", Millis(1500*time.Microsecond))
	}
}
