package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/servable"
)

// AblationPipeline compares the three pipeline execution modes over a
// two-site WAN deployment: the TM-local monolith (every step
// co-deployed on one Task Manager, one queue round trip), the
// service-orchestrated distributed engine (steps placed on DISJOINT
// sites, each step routed independently), and the distributed engine
// with a hot working set served from the per-step result cache. The
// distributed rows are the workload the pre-PR monolith could not run
// at all — the experiment errors if any mode fails.
func AblationPipeline(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{WAN: true, ServiceCache: true})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	tm2, err := tb.AddTM("cooley-tm-2", 4)
	if err != nil {
		return nil, err
	}
	if err := tb.MS.WaitForTM(2, 10*time.Second); err != nil {
		return nil, err
	}

	caller := core.Anonymous
	utilID, err := tb.MS.Publish(context.Background(), caller, servable.MatminerUtilPackage())
	if err != nil {
		return nil, err
	}
	featID, err := tb.MS.Publish(context.Background(), caller, servable.MatminerFeaturizePackage())
	if err != nil {
		return nil, err
	}
	pipe := &servable.Package{Doc: servable.PipelineDoc("formation-features", "Composition to Magpie features", []string{utilID, featID})}
	pipeID, err := tb.MS.Publish(context.Background(), caller, pipe)
	if err != nil {
		return nil, err
	}

	// Disjoint placement first: step 1 on cooley-tm-1, step 2 on
	// cooley-tm-2 — the distributed engine's home turf. The monolith
	// mode runs LAST because placement only grows: co-deploying step 2
	// on tm-1 re-enables the fast path permanently.
	if err := tb.MS.DeployTo(context.Background(), caller, utilID, 2, "parsl", "cooley-tm-1"); err != nil {
		return nil, err
	}
	if err := tb.MS.DeployTo(context.Background(), caller, featID, 2, "parsl", "cooley-tm-2"); err != nil {
		return nil, err
	}

	formulas := []string{
		"NaCl", "SiO2", "Fe2O3", "MgO", "Al2O3", "TiO2", "CaO", "ZnO",
		"CuO", "NiO", "FeO", "SrTiO3", "BaTiO3", "LiFePO4", "K2O", "Na2O",
	}

	t := &Table{
		Title: "Ablation: pipeline execution — monolith vs distributed vs cached prefix",
		Headers: []string{"mode", "sites", "p50 request (ms)", "p95 (ms)",
			"throughput (req/s)", "step-cache hit rate", "TM tasks/run"},
	}
	clients := 8
	perClient := cfg.Requests / clients
	if perClient < 5 {
		perClient = 5
	}
	total := clients * perClient

	runMode := func(mode string, sites string, opts core.RunOptions, workingSet int) error {
		tb.MS.FlushCache()
		cacheBefore := tb.MS.CacheStats()
		done1Before, _ := tb.TM.Stats()
		done2Before, _ := tm2.Stats()
		lat := metrics.NewSeries("")
		start := time.Now()
		if err := fanOut(clients, func(c int) error {
			for i := 0; i < perClient; i++ {
				input := formulas[(c*perClient+i)%workingSet]
				t0 := time.Now()
				if _, err := tb.MS.Run(context.Background(), caller, pipeID, input, opts); err != nil {
					return fmt.Errorf("bench: pipeline mode %s: %w", mode, err)
				}
				lat.Add(time.Since(t0))
			}
			return nil
		}); err != nil {
			return err
		}
		makespan := time.Since(start)
		st := lat.Stats()
		cacheAfter := tb.MS.CacheStats()
		done1, _ := tb.TM.Stats()
		done2, _ := tm2.Stats()
		tasks := float64((done1-done1Before)+(done2-done2Before)) / float64(total)
		hits := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Collapsed - cacheBefore.Collapsed)
		// Hit rate over step executions (2 steps per run).
		hitRate := 100 * float64(hits) / float64(2*total)
		tput := metrics.Throughput(total, makespan)
		t.Add(mode, sites, msDur(st.Median), msDur(st.P95),
			fmt.Sprintf("%.0f", tput), fmt.Sprintf("%.0f%%", hitRate), fmt.Sprintf("%.1f", tasks))
		cfg.logf("pipeline: mode=%-13s p50 %sms p95 %sms throughput %.0f/s hits %d tasks/run %.1f",
			mode, msDur(st.Median), msDur(st.P95), tput, hits, tasks)
		return nil
	}

	// Distributed: every step its own dispatch, cache bypassed.
	if err := runMode("distributed", "2 (disjoint)", core.RunOptions{NoCache: true}, len(formulas)); err != nil {
		return nil, err
	}
	// Cached prefix: a hot working set replayed through the per-step
	// cache; after warmup both steps answer at the Management Service.
	hitsBefore := tb.MS.CacheStats().Hits
	if err := runMode("cached-prefix", "2 (disjoint)", core.RunOptions{}, 8); err != nil {
		return nil, err
	}
	if tb.MS.CacheStats().Hits == hitsBefore {
		return nil, fmt.Errorf("bench: cached-prefix mode never hit the per-step result cache")
	}
	// Monolith: co-deploy step 2 on tm-1 so every step is live on one
	// site; the whole chain ships as one task again.
	if err := tb.MS.DeployTo(context.Background(), caller, featID, 2, "parsl", "cooley-tm-1"); err != nil {
		return nil, err
	}
	if err := runMode("monolith", "1 (co-deployed)", core.RunOptions{NoCache: true}, len(formulas)); err != nil {
		return nil, err
	}

	t.Note("%d clients x %d requests per mode; WAN RTT 20.7ms-shaped; 2-step matminer pipeline (parse -> featurize)", clients, perClient)
	t.Note("distributed = service-orchestrated per-step routing (disjoint placement is impossible for the TM-local monolith)")
	return t, nil
}
