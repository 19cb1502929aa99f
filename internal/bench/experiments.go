package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matsci"
	"repro/internal/metrics"
	"repro/internal/servable"
)

// Config scales the experiments. Defaults reproduce the paper's shapes
// in minutes on a laptop; PaperScale() restores the paper's counts.
type Config struct {
	// Requests per servable for Figs. 3, 4 and 8 (paper: 100).
	Requests int
	// Fig5Sizes are the request counts swept in Fig. 5 (paper: 1-100).
	Fig5Sizes []int
	// Fig6Sizes are the batch sizes swept in Fig. 6 (paper: up to 10,000).
	Fig6Sizes []int
	// Fig7N is the inference count per replica point (paper: 5,000).
	Fig7N int
	// Fig7Replicas is the replica sweep (paper: 1-32).
	Fig7Replicas []int
	// Seed for inputs and model weights.
	Seed int64
	// Out receives progress logging (nil = silent).
	Out io.Writer
}

// Defaults fills unset fields with laptop-scale values.
func (c Config) Defaults() Config {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if len(c.Fig5Sizes) == 0 {
		c.Fig5Sizes = []int{1, 5, 10, 25, 50, 100}
	}
	if len(c.Fig6Sizes) == 0 {
		c.Fig6Sizes = []int{250, 500, 1000, 2000}
	}
	if c.Fig7N <= 0 {
		c.Fig7N = 1000
	}
	if len(c.Fig7Replicas) == 0 {
		c.Fig7Replicas = []int{1, 2, 4, 8, 16, 24, 32}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// PaperScale returns the paper's full experiment sizes (§V-B).
func PaperScale() Config {
	return Config{
		Requests:     100,
		Fig5Sizes:    []int{1, 5, 10, 25, 50, 75, 100},
		Fig6Sizes:    []int{1000, 2500, 5000, 7500, 10000},
		Fig7N:        5000,
		Fig7Replicas: []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32},
		Seed:         42,
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// inputs generates per-servable request payloads. Fig. 3 uses "fixed
// input data"; sweeps that must dodge memoization use varied inputs.
type inputGen struct {
	rng *rand.Rand
}

func newInputGen(seed int64) *inputGen { return &inputGen{rng: rand.New(rand.NewSource(seed))} }

func (g *inputGen) image(n int) []any {
	img := make([]any, n)
	for i := range img {
		img[i] = g.rng.Float64()
	}
	return img
}

// forServable builds one input for the named paper servable.
func (g *inputGen) forServable(name string) any {
	switch name {
	case "noop":
		return "hello"
	case "inception":
		return g.image(64 * 64 * 3)
	case "cifar10":
		return g.image(32 * 32 * 3)
	case "matminer-util":
		formulas := []string{"NaCl", "SiO2", "Fe2O3", "MgAl2O4", "TiO2", "BaTiO3"}
		return formulas[g.rng.Intn(len(formulas))]
	case "matminer-featurize":
		return map[string]any{"Na": 0.5, "Cl": 0.5}
	case "matminer-model":
		feats := matsci.Featurize(matsci.Composition{"Na": 1, "Cl": 1})
		out := make([]any, len(feats))
		for i, f := range feats {
			out[i] = f
		}
		return out
	default:
		return "x"
	}
}

// fig3Order is the servable order of Fig. 3's x-axis.
var fig3Order = []string{"noop", "matminer-util", "matminer-model", "matminer-featurize", "cifar10", "inception"}

func msDur(d time.Duration) string { return fmt.Sprintf("%.2f", metrics.Millis(d)) }

// fanOut runs fn(0) .. fn(n-1) concurrently and, once all have
// returned, gives the first error any of them returned.
func fanOut(n int, fn func(i int) error) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(i); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// chunk returns the i-th slice of at most size items of s.
func chunk(s []any, i, size int) []any {
	return s[i*size : min((i+1)*size, len(s))]
}

// Fig3 reproduces "Servable Performance": request, invocation and
// inference times for the six servables, 100 fixed-input requests each,
// memoization disabled, batch size one, sequential submission.
func Fig3(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{WAN: true})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cfg.logf("fig3: publishing + deploying 6 servables")
	ids, err := tb.PublishPaperServables(core.Anonymous, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fig. 3: Request, invocation, and inference times for six servables (ms)",
		Headers: []string{"servable", "inference p50", "p5", "p95",
			"invocation p50", "p5", "p95", "request p50", "p5", "p95"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range fig3Order {
		input := gen.forServable(name) // fixed per servable
		inf := metrics.NewSeries("inference")
		inv := metrics.NewSeries("invocation")
		req := metrics.NewSeries("request")
		// Warm-up request (interpreter import, connection setup).
		if _, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{NoMemo: true}); err != nil {
			return nil, fmt.Errorf("fig3 %s warmup: %w", name, err)
		}
		for i := 0; i < cfg.Requests; i++ {
			res, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{NoMemo: true})
			if err != nil {
				return nil, fmt.Errorf("fig3 %s: %w", name, err)
			}
			inf.Add(time.Duration(res.InferenceMicros) * time.Microsecond)
			inv.Add(time.Duration(res.InvocationMicros) * time.Microsecond)
			req.Add(time.Duration(res.RequestMicros) * time.Microsecond)
		}
		i, v, r := inf.Stats(), inv.Stats(), req.Stats()
		t.Add(name, msDur(i.Median), msDur(i.P5), msDur(i.P95),
			msDur(v.Median), msDur(v.P5), msDur(v.P95),
			msDur(r.Median), msDur(r.P5), msDur(r.P95))
		cfg.logf("fig3: %-18s inference %s  invocation %s  request %s",
			name, msDur(i.Median), msDur(v.Median), msDur(r.Median))
	}
	t.Note("%d fixed-input requests per servable, memoization off, batch size 1, sequential (§V-B1)", cfg.Requests)
	t.Note("expected shape: request ≈ invocation + ~20.7ms WAN RTT; image servables pay extra input transfer")
	return t, nil
}

// Fig4 reproduces "Memoization": invocation and request times with
// memoization enabled vs disabled on repeated identical inputs.
func Fig4(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{WAN: true, Memoize: true})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cfg.logf("fig4: publishing + deploying 6 servables")
	ids, err := tb.PublishPaperServables(core.Anonymous, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title: "Fig. 4: Performance impact of memoization (ms)",
		Headers: []string{"servable", "invocation off", "invocation on", "reduction %",
			"request off", "request on", "reduction %"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range fig3Order {
		input := gen.forServable(name)
		offInv := metrics.NewSeries("")
		offReq := metrics.NewSeries("")
		onInv := metrics.NewSeries("")
		onReq := metrics.NewSeries("")
		if _, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{NoMemo: true}); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Requests; i++ {
			res, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{NoMemo: true})
			if err != nil {
				return nil, err
			}
			offInv.Add(time.Duration(res.InvocationMicros) * time.Microsecond)
			offReq.Add(time.Duration(res.RequestMicros) * time.Microsecond)
		}
		// Prime the cache, then measure hits.
		if _, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{}); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Requests; i++ {
			res, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{})
			if err != nil {
				return nil, err
			}
			if !res.Cached {
				return nil, fmt.Errorf("fig4 %s: expected cache hit", name)
			}
			onInv.Add(time.Duration(res.InvocationMicros) * time.Microsecond)
			onReq.Add(time.Duration(res.RequestMicros) * time.Microsecond)
		}
		oi, oni := offInv.Stats(), onInv.Stats()
		or, onr := offReq.Stats(), onReq.Stats()
		invRed := 100 * (1 - float64(oni.Median)/float64(oi.Median))
		reqRed := 100 * (1 - float64(onr.Median)/float64(or.Median))
		t.Add(name, msDur(oi.Median), msDur(oni.Median), fmt.Sprintf("%.1f", invRed),
			msDur(or.Median), msDur(onr.Median), fmt.Sprintf("%.1f", reqRed))
		cfg.logf("fig4: %-18s invocation %s -> %s (%.1f%%)  request %s -> %s (%.1f%%)",
			name, msDur(oi.Median), msDur(oni.Median), invRed, msDur(or.Median), msDur(onr.Median), reqRed)
	}
	t.Note("%d identical requests per mode; paper reports 95.3-99.8%% invocation and 24.3-95.4%% request reductions", cfg.Requests)
	return t, nil
}

// fig5Servables are the "three example servables" of Figs. 5-7's
// batching/scaling studies.
var fig5Servables = []string{"noop", "cifar10", "matminer-featurize"}

// Fig5 reproduces "Batching": total invocation time for n requests with
// and without batching.
func Fig5(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{WAN: true})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cfg.logf("fig5: publishing + deploying servables (4 replicas each)")
	ids, err := tb.PublishPaperServables(core.Anonymous, 4, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Fig. 5: Servable invocation time, with and without batching (ms total for n requests)",
		Headers: []string{"servable", "n", "unbatched", "batched", "speedup"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range fig5Servables {
		for _, n := range cfg.Fig5Sizes {
			inputs := make([]any, n)
			for i := range inputs {
				inputs[i] = gen.forServable(name)
			}
			// Without batching: n sequential requests; sum invocation.
			var unbatched time.Duration
			for i := 0; i < n; i++ {
				res, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], inputs[i], core.RunOptions{NoMemo: true})
				if err != nil {
					return nil, err
				}
				unbatched += time.Duration(res.InvocationMicros) * time.Microsecond
			}
			// With batching: one batch task.
			res, err := tb.MS.RunBatch(context.Background(), core.Anonymous, ids[name], inputs, core.RunOptions{NoMemo: true})
			if err != nil {
				return nil, err
			}
			batched := time.Duration(res.InvocationMicros) * time.Microsecond
			speedup := float64(unbatched) / float64(batched)
			t.Add(name, fmt.Sprint(n), msDur(unbatched), msDur(batched), fmt.Sprintf("%.1fx", speedup))
			cfg.logf("fig5: %-18s n=%-4d unbatched %sms batched %sms (%.1fx)",
				name, n, msDur(unbatched), msDur(batched), speedup)
		}
	}
	t.Note("batching amortizes the queue and WAN hops (§V-B3); each item still passes the IPP router and pays one dispatch overhead, and the Task Manager runs %d items at a time (GOMAXPROCS + 4 replicas)",
		runtime.GOMAXPROCS(0)+4)
	return t, nil
}

// Fig6 reproduces "Invocation time vs. number of requests, with
// batching" — the roughly linear growth to large n.
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	// WAN off: the metric is invocation time at the Task Manager; an
	// in-process queue keeps input transfer off the measured path.
	tb, err := NewTestbed(Options{WAN: false})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cfg.logf("fig6: publishing + deploying servables (4 replicas each)")
	ids, err := tb.PublishPaperServables(core.Anonymous, 4, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Fig. 6: Invocation time vs number of requests, with batching (ms)",
		Headers: []string{"servable", "n", "invocation", "ms/request"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range fig5Servables {
		for _, n := range cfg.Fig6Sizes {
			inputs := make([]any, n)
			for i := range inputs {
				inputs[i] = gen.forServable(name)
			}
			// Split very large batches across several tasks to respect
			// frame limits; submit concurrently (total makespan).
			const size = 250
			start := time.Now()
			if err := fanOut((n+size-1)/size, func(i int) error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
				defer cancel()
				_, err := tb.MS.RunBatch(ctx, core.Anonymous, ids[name], chunk(inputs, i, size), core.RunOptions{NoMemo: true})
				return err
			}); err != nil {
				return nil, err
			}
			total := time.Since(start)
			t.Add(name, fmt.Sprint(n), msDur(total), fmt.Sprintf("%.3f", metrics.Millis(total)/float64(n)))
			cfg.logf("fig6: %-18s n=%-5d %sms (%.3f ms/req)", name, n, msDur(total), metrics.Millis(total)/float64(n))
		}
	}
	t.Note("expected shape: roughly linear in n (§V-B3 Fig. 6); ms/request stays ~constant per servable")
	return t, nil
}

// Fig7 reproduces "Scalability": time for N inferences vs replica
// count; Parsl executor, memoization off, batch size 1 per dispatch.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	// WAN off: Fig. 7 reports "observed Task Manager throughput" — the
	// flood is submitted at the TM, not across the WAN.
	tb, err := NewTestbed(Options{WAN: false})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	models := []string{"inception", "cifar10", "matminer-featurize"}
	cfg.logf("fig7: publishing + deploying 3 models")
	ids, err := tb.PublishPaperServables(core.Anonymous, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   fmt.Sprintf("Fig. 7: Time to process %d inferences vs replicas (s)", cfg.Fig7N),
		Headers: []string{"model", "replicas", "makespan", "throughput (req/s)"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range models {
		// Pre-generate distinct inputs (memoization is off anyway, but
		// varied inputs also defeat any lower-level caching).
		inputs := make([]any, cfg.Fig7N)
		for i := range inputs {
			inputs[i] = gen.forServable(name)
		}
		for _, replicas := range cfg.Fig7Replicas {
			if err := tb.MS.Scale(context.Background(), core.Anonymous, ids[name], replicas, "parsl"); err != nil {
				return nil, fmt.Errorf("fig7 scale %s to %d: %w", name, replicas, err)
			}
			// Flood the TM through concurrent batch chunks; makespan
			// covers all N completions ("observed Task Manager
			// throughput").
			const size = 100
			start := time.Now()
			if err := fanOut((len(inputs)+size-1)/size, func(i int) error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
				defer cancel()
				_, err := tb.MS.RunBatch(ctx, core.Anonymous, ids[name], chunk(inputs, i, size), core.RunOptions{NoMemo: true})
				return err
			}); err != nil {
				return nil, err
			}
			makespan := time.Since(start)
			tput := metrics.Throughput(cfg.Fig7N, makespan)
			t.Add(name, fmt.Sprint(replicas), fmt.Sprintf("%.2f", makespan.Seconds()), fmt.Sprintf("%.0f", tput))
			cfg.logf("fig7: %-18s replicas=%-3d makespan %.2fs throughput %.0f/s", name, replicas, makespan.Seconds(), tput)
		}
		// Scale back down to free cluster capacity for the next model.
		if err := tb.MS.Scale(context.Background(), core.Anonymous, ids[name], 1, "parsl"); err != nil {
			return nil, err
		}
	}
	t.Note("expected shape: throughput rises with replicas then saturates — dispatch serialization and host")
	t.Note("CPU bound it; shorter tasks (featurize) benefit least from added replicas (§V-B4)")
	return t, nil
}

// fig8Systems are the serving configurations of Fig. 8.
type fig8System struct {
	label    string
	executor string // TM route
	memo     string // "", "dlhub", "clipper"
}

var fig8Systems = []fig8System{
	{"TFServing-gRPC", "tfserving-grpc", ""},
	{"TFServing-REST", "tfserving-rest", ""},
	{"SageMaker-TFServing-gRPC", "tfserving-grpc", ""},
	{"SageMaker-TFServing-REST", "tfserving-rest", ""},
	{"SageMaker-Flask", "sagemaker", ""},
	{"Clipper", "clipper", ""},
	{"Clipper (memoized)", "clipper", "clipper"},
	{"DLHub (Parsl)", "parsl", ""},
	{"DLHub (memoized)", "parsl", "dlhub"},
}

// Fig8 reproduces "Serving Comparison": CIFAR-10 and Inception served
// through every system, with and without memoization where supported.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{
		WAN:       true,
		Executors: []string{"tfserving-grpc", "tfserving-rest", "sagemaker", "clipper"},
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	models := []string{"cifar10", "inception"}
	pkgs, err := servable.PaperServables(cfg.Seed)
	if err != nil {
		return nil, err
	}
	ids := map[string]string{}
	for _, name := range models {
		id, err := tb.MS.Publish(context.Background(), core.Anonymous, pkgs[name])
		if err != nil {
			return nil, err
		}
		ids[name] = id
		// Deploy the model on every serving system. (SageMaker-TFS
		// shares the TFS deployment: the paper found SageMaker's
		// TFS-backed serving equivalent to TFS itself.)
		for _, route := range []string{"parsl", "tfserving-grpc", "tfserving-rest", "sagemaker", "clipper"} {
			cfg.logf("fig8: deploying %s on %s", name, route)
			if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, route); err != nil {
				return nil, fmt.Errorf("fig8 deploy %s on %s: %w", name, route, err)
			}
		}
	}

	t := &Table{
		Title:   "Fig. 8: Performance of serving systems on Inception and CIFAR-10 (ms)",
		Headers: []string{"system", "model", "invocation p50", "request p50"},
	}
	gen := newInputGen(cfg.Seed)
	for _, name := range models {
		input := gen.forServable(name) // fixed input: memo runs hit
		for _, sys := range fig8Systems {
			// Configure memoization for this pass.
			tb.TM.SetMemoize(sys.memo == "dlhub")
			if tb.Clipper != nil {
				tb.Clipper.SetCaching(sys.memo == "clipper")
			}
			noMemo := sys.memo != "dlhub"

			inv := metrics.NewSeries("")
			req := metrics.NewSeries("")
			// Warm-up (fills caches for the memoized passes).
			if _, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{Executor: sys.executor, NoMemo: noMemo}); err != nil {
				return nil, fmt.Errorf("fig8 %s/%s warmup: %w", sys.label, name, err)
			}
			for i := 0; i < cfg.Requests; i++ {
				res, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], input, core.RunOptions{Executor: sys.executor, NoMemo: noMemo})
				if err != nil {
					return nil, fmt.Errorf("fig8 %s/%s: %w", sys.label, name, err)
				}
				inv.Add(time.Duration(res.InvocationMicros) * time.Microsecond)
				req.Add(time.Duration(res.RequestMicros) * time.Microsecond)
			}
			iv, rq := inv.Stats(), req.Stats()
			t.Add(sys.label, name, msDur(iv.Median), msDur(rq.Median))
			cfg.logf("fig8: %-26s %-9s invocation %sms request %sms", sys.label, name, msDur(iv.Median), msDur(rq.Median))
		}
	}
	tb.TM.SetMemoize(false)
	t.Note("%d requests per configuration; fixed input so memoized passes hit (§V-B5)", cfg.Requests)
	t.Note("expected shape: TFS-gRPC < TFS-REST <= SM-TFS < SM-Flask ~ DLHub(Parsl);")
	t.Note("DLHub+memo ~1ms invocation (cache at TM) << Clipper+memo (cache in cluster)")
	return t, nil
}
