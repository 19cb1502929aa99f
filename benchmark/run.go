package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// params are what one run of one workload is given.
type params struct {
	seed   int64
	window time.Duration
	// traced selects the per-layer run (untraced reference pass, then
	// traced pass) in place of the end-to-end run.
	traced bool
	// expect is the output every run must return.
	expect string
	// setups is how many times the end-to-end run assembles its stack;
	// setup_s is their median.
	setups int
	// driverTime is how long each isolated driver runs.
	driverTime time.Duration
	// host is where the run takes place; it heads the trace file.
	host hostInfo
}

func defaultParams() params {
	return params{seed: 1, window: 20 * time.Second, expect: helloWorld, setups: 3, driverTime: 300 * time.Millisecond}
}

type metric struct {
	name  string
	unit  string
	value float64
}

// result is the outcome of one run.
type result struct {
	attempted, failed int
	firstErr          error
	metrics           []metric
}

const (
	clients = 2
	// procs pins GOMAXPROCS, so that a result does not depend on how many
	// cores the host has beyond the two the load model needs.
	procs = 2
)

func runWorkload(w *workload, p params) (result, error) {
	runtime.GOMAXPROCS(procs)
	if p.traced {
		return runTraced(w, p)
	}
	return runEndToEnd(w, p)
}

// setUp assembles the workload's stack and sends its fixed-count warm-up
// from both clients. A warm-up request that fails is an error: the
// measured window must start from a correct, warm system.
func setUp(w *workload, p params, rec *recorder) (*stack, error) {
	st, err := newStack(w.cfg, p.seed, rec)
	if err != nil {
		return nil, err
	}
	per := w.warmup / clients
	samples, err := drive(st, w, p, clients, 0, func(done int, _ time.Duration) bool { return done >= per }, nil)
	if err == nil {
		err = merge(samples, 0, 1).firstErr
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// drive runs n closed-loop clients against st and returns each one's
// sample.
func drive(st *stack, w *workload, p params, n, n0 int, stop func(int, time.Duration) bool, observe func(*op, time.Time, time.Time, []byte)) ([]sample, error) {
	samples := make([]sample, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			refs := rand.New(rand.NewSource(p.seed<<8 + 128 + int64(c)))
			samples[c], errs[c] = runClient(st.addr, w.source(st, p.seed, c, n0, p.expect), refs, stop, observe)
		}(c)
	}
	wg.Wait()
	return samples, errors.Join(errs...)
}

// merge pools the clients' samples; with blocks > 1 it returns only the
// block-th of that many consecutive slices of each client's loop, which
// in a closed loop is one slice of the window's time.
func merge(samples []sample, block, blocks int) sample {
	var all sample
	slice := func(ns []int64) []int64 { return ns[block*len(ns)/blocks : (block+1)*len(ns)/blocks] }
	for _, s := range samples {
		all.reqNs = append(all.reqNs, slice(s.reqNs)...)
		all.refNs = append(all.refNs, slice(s.refNs)...)
		all.failed += s.failed
		if all.firstErr == nil {
			all.firstErr = s.firstErr
		}
	}
	return all
}

// runEndToEnd measures the six end-to-end metrics with no interposer
// installed: latency as a ratio to the interleaved reference call, exact
// allocation counts, and set-up time.
func runEndToEnd(w *workload, p params) (result, error) {
	var st *stack
	setupS := make([]float64, p.setups)
	for i := range setupS {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(w, p, nil); err != nil {
			return result{}, err
		}
		setupS[i] = time.Since(t0).Seconds()
	}
	defer st.close()

	runtime.GC()
	before := readHeapAllocs()
	samples, err := drive(st, w, p, clients, w.warmup, func(_ int, elapsed time.Duration) bool { return elapsed >= p.window }, nil)
	after := readHeapAllocs()
	if err != nil {
		return result{}, err
	}
	all := merge(samples, 0, 1)
	n := float64(len(all.reqNs))
	// Each ratio is taken inside a slice of the window and the median
	// slice is reported: request and reference latencies in one slice saw
	// the same host, so drift in host speed cancels, and one stalled
	// slice does not move the result. A slice holds at least
	// minPerBlock requests, so that sixty or more lie beyond its p95.
	blocks := min(max(len(all.reqNs)/minPerBlock, 1), maxBlocks)
	p50x, p95x, meanx := make([]float64, blocks), make([]float64, blocks), make([]float64, blocks)
	for b := range p50x {
		s := merge(samples, b, blocks)
		req, ref := summarise(s.reqNs), summarise(s.refNs)
		p50x[b], p95x[b], meanx[b] = req.p50/ref.p50, req.p95/ref.p50, req.mean/ref.mean
	}
	return result{
		attempted: len(all.reqNs),
		failed:    all.failed,
		firstErr:  all.firstErr,
		metrics: []metric{
			{"overhead_p50_x", "ratio", p50(p50x)},
			{"overhead_p95_x", "ratio", p50(p95x)},
			{"overhead_mean_x", "ratio", p50(meanx)},
			{"allocs_per_op", "count", float64(after.objects-before.objects) / n},
			{"alloc_kb_per_op", "KiB", float64(after.bytes-before.bytes) / 1024 / n},
			{"setup_s", "s", p50(setupS)},
		},
	}, nil
}

const (
	minPerBlock = 1200
	maxBlocks   = 20
)

// summary holds the order statistics of one latency sample, in ns. mean
// leaves out the slowest 1%: those few samples carry the host's stalls,
// and with them in, the mean repeats three times worse between runs.
type summary struct{ p50, p95, p99, mean float64 }

func summarise(ns []int64) summary {
	if len(ns) == 0 {
		return summary{}
	}
	sorted := slices.Sorted(slices.Values(ns))
	at := func(q float64) float64 { return float64(sorted[int(q*float64(len(sorted)-1))]) }
	kept := sorted[:max(len(sorted)*99/100, 1)]
	var sum float64
	for _, v := range kept {
		sum += float64(v)
	}
	return summary{p50: at(0.50), p95: at(0.95), p99: at(0.99), mean: sum / float64(len(kept))}
}

func p50(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(values))
	return sorted[len(sorted)/2]
}

type heapAllocs struct{ objects, bytes uint64 }

// readHeapAllocs reads the runtime's cumulative allocation counters.
// They are counted, not sampled, which is why the benchmark gates on
// them. A P adds a span's objects to them only when it is done with the
// span, so a reading lags by at most a few thousand objects: nothing
// against a window's millions.
func readHeapAllocs() heapAllocs {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return heapAllocs{objects: s[0].Value.Uint64(), bytes: s[1].Value.Uint64()}
}

// processStats are the process-wide counters the traced pass brackets.
type processStats struct {
	cpu      time.Duration
	gcCycles uint64
	peakRSS  int64 // KiB
}

func readProcessStats() processStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck — cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return processStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles: s[0].Value.Uint64(),
		peakRSS:  ru.Maxrss,
	}
}

// runTraced produces the trace-derived per-layer metrics: an untraced
// single-client pass (the base of trace.overhead_pct), then the same pass
// again with the interposers recording.
func runTraced(w *workload, p params) (result, error) {
	rec := newRecorder()
	st, err := setUp(w, p, rec)
	if err != nil {
		return result{}, err
	}
	// Count-based so that counts such as evictions repeat exactly; the
	// time bound only keeps a slow host inside the run's budget.
	stop := func(done int, elapsed time.Duration) bool {
		return done >= w.tracedRequests || elapsed >= p.window/3
	}
	samples, err := drive(st, w, p, 1, w.warmup, stop, nil)
	if err != nil {
		st.close()
		return result{}, err
	}
	untraced := samples[0]

	var spans []clientSpan
	cacheBefore, procBefore := st.ms.CacheStats(), readProcessStats()
	rec.on.Store(true)
	t0 := time.Now()
	samples, err = drive(st, w, p, 1, w.warmup+w.tracedRequests, stop, observeClient(&spans))
	traced := samples[0]
	elapsed := time.Since(t0)
	rec.on.Store(false)
	cacheAfter, procAfter := st.ms.CacheStats(), readProcessStats()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	st.close()
	if err != nil {
		return result{}, err
	}

	traceFile, tw, err := openTrace(w.name, p.host)
	if err != nil {
		return result{}, err
	}
	tr := analyse(spans, rec, !w.cfg.wan, st.injectedUs, tw)
	if err := errors.Join(tw.Flush(), traceFile.Close()); err != nil {
		return result{}, err
	}
	if tr.orphans > 0 || tr.negative > 0 {
		return result{}, fmt.Errorf("trace is inconsistent: %d parentless spans, %d negative self times", tr.orphans, tr.negative)
	}

	n := float64(len(traced.reqNs))
	req, ref, base := summarise(traced.reqNs), summarise(traced.refNs), summarise(untraced.reqNs)
	layer := func(pick func(layerTimes) float64) float64 {
		values := make([]float64, len(tr.layers))
		for i, lt := range tr.layers {
			values[i] = pick(lt)
		}
		return p50(values)
	}
	lookups := float64(cacheAfter.Hits - cacheBefore.Hits + cacheAfter.Misses - cacheBefore.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cacheAfter.Hits-cacheBefore.Hits) / lookups
	}
	rec.mu.Lock()
	pulls, empty := float64(rec.pulls), float64(rec.empty)
	rec.mu.Unlock()

	res := result{
		attempted: len(traced.reqNs) + len(untraced.reqNs),
		failed:    traced.failed + untraced.failed,
		firstErr:  errors.Join(untraced.firstErr, traced.firstErr),
		metrics: []metric{
			{"client.throughput_rps", "1/s", n / elapsed.Seconds()},
			{"client.latency_p50_ms", "ms", req.p50 / 1e6},
			{"client.latency_p99_ms", "ms", req.p99 / 1e6},
			{"client.ref_p50_ms", "ms", ref.p50 / 1e6},
			{"http.self_p50_us", "us", layer(func(l layerTimes) float64 { return l.http })},
			{"core.self_p50_us", "us", layer(func(l layerTimes) float64 { return l.core })},
			{"core.cache_hit_ratio", "ratio", hitRatio},
			{"core.cache_evictions_per_op", "count", float64(cacheAfter.Evictions-cacheBefore.Evictions) / n},
			{"core.dispatches_per_op", "count", float64(tr.dispatches) / n},
			{"queue.transit_p50_us", "us", layer(func(l layerTimes) float64 { return l.queue })},
			{"queue.pulls_per_op", "count", pulls / n},
			{"queue.empty_pulls_per_s", "1/s", empty / elapsed.Seconds()},
			{"taskmanager.self_p50_us", "us", layer(func(l layerTimes) float64 { return l.tm })},
			{"executor.self_p50_us", "us", layer(func(l layerTimes) float64 { return l.exec })},
			{"executor.invokes_per_op", "count", float64(tr.invokes) / n},
			{"servable.inference_p50_us", "us", layer(func(l layerTimes) float64 { return l.inference })},
			{"sim.injected_p50_us", "us", layer(func(l layerTimes) float64 { return l.injected })},
			{"sim.sleep_300us_actual_us", "us", p.host.SleepActualUs},
			{"process.cpu_us_per_op", "us", float64((procAfter.cpu - procBefore.cpu).Microseconds()) / n},
			{"process.heap_live_mb", "MiB", float64(heap.HeapAlloc) / (1 << 20)},
			{"process.peak_rss_mb", "MiB", float64(procAfter.peakRSS) / 1024},
			{"process.gc_per_1k_ops", "count", float64(procAfter.gcCycles-procBefore.gcCycles) / n * 1000},
			{"trace.overhead_pct", "%", (req.p50 - base.p50) / base.p50 * 100},
		},
	}
	return res, nil
}
