package scenario

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pyruntime"
	"repro/internal/schema"
	"repro/internal/servable"
)

// Options tunes one scenario execution.
type Options struct {
	// Compress divides stage durations and fault offsets (<= 1 = run
	// the spec at full scale). Rates are untouched, so compression
	// shrinks request counts with the wall time — how CI replays
	// committed scenarios quickly.
	Compress float64
	// SpecPath/SpecSHA annotate the result with the source file and its
	// content hash (the CI staleness gate).
	SpecPath string
	SpecSHA  string
	// Progress receives one line per stage and fault (nil = silent).
	Progress io.Writer
}

// matminerFormulas is the pipeline workload's input vocabulary; a
// request's key indexes into it (mod len).
var matminerFormulas = []string{
	"NaCl", "SiO2", "Fe2O3", "MgO", "Al2O3", "TiO2", "CaO", "ZnO",
	"CuO", "NiO", "FeO", "SrTiO3", "BaTiO3", "LiFePO4", "K2O", "Na2O",
}

// Run executes a scenario against a fresh in-process Testbed and
// returns the filled report. The spec must already be validated
// (Parse does this).
func Run(spec *Spec, opts Options) (*bench.Report, error) {
	if opts.Compress < 1 {
		opts.Compress = 1
	}
	effective := spec.Compressed(opts.Compress)
	sched := BuildSchedule(effective)
	progress := func(format string, args ...any) {
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, format+"\n", args...)
		}
	}

	// A restart_ms fault needs a durable store to recover from; other
	// scenarios keep the zero-cost in-memory service.
	var dataDir string
	if spec.HasFault("restart_ms") {
		dir, err := os.MkdirTemp("", "scenario-wal-")
		if err != nil {
			return nil, fmt.Errorf("scenario %s: wal dir: %w", spec.Name, err)
		}
		defer os.RemoveAll(dir) //nolint:errcheck
		dataDir = dir
	}
	tbOpts := bench.Options{
		Nodes:             spec.Topology.Nodes,
		WAN:               spec.Topology.WAN,
		ServiceCache:      spec.Service.Cache,
		AutoscaleInterval: spec.Service.AutoscaleInterval.D(),
		MaxQueue:          spec.Service.MaxQueue,
		Heartbeat:         spec.Topology.Heartbeat.D(),
		TMStaleAfter:      spec.Service.TMStaleAfter.D(),
		FailoverRetries:   spec.Service.FailoverRetries,
		DataDir:           dataDir,
	}
	if effective.Auth {
		// The auth service plays Globus Auth: it lives OUTSIDE the
		// Management Service (it is config, like the real external
		// authority), so tokens survive a restart_ms fault while the
		// tenant registry and user records still prove their WAL path —
		// recovery replays them into the fresh service instance.
		as := auth.NewService(time.Hour)
		as.RegisterProvider("scenario")
		as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
		tbOpts.Auth = as
		tbOpts.RunScope = "dlhub:serve"
		tbOpts.RequireAuth = true
		tbOpts.AuthClientID = "dlhub"
		tbOpts.AuthProvider = "scenario"
	}
	tb, err := bench.NewTestbed(tbOpts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: testbed: %w", spec.Name, err)
	}
	defer tb.Close()
	for i := 2; i <= spec.Topology.TMs; i++ {
		if _, err := tb.AddTM(TMID(i), spec.Topology.Nodes); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	}
	if err := tb.MS.WaitForTM(spec.Topology.TMs, 10*time.Second); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	wl, err := setupWorkload(tb, effective)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	// Install the declared tenant quotas before any measured request;
	// the priority class pushes its dequeue weight to the broker lane.
	for _, t := range effective.Tenants {
		if _, err := tb.Service().SetTenantQuota(t.ID, auth.Quota{
			MaxInFlight: t.MaxInFlight,
			RatePerSec:  t.RatePerSec,
			Priority:    t.Priority,
		}); err != nil {
			return nil, fmt.Errorf("scenario %s: tenant %s: %w", spec.Name, t.ID, err)
		}
	}
	// Authenticated mode: one account per tenant, registered and logged
	// in up front; every tagged request then resolves its caller from
	// the tenant's bearer token — the same introspection path an HTTP
	// request takes, including post-restart resolution against the
	// recovered registry.
	if effective.Auth {
		tokens := make(map[string]string, len(effective.Tenants))
		for _, t := range effective.Tenants {
			user := t.ID + "-user"
			if _, err := tb.Service().RegisterUser("", user, "scenario-pw", "", "", t.ID); err != nil {
				return nil, fmt.Errorf("scenario %s: register %s: %w", spec.Name, user, err)
			}
			res, err := tb.Service().Login("", user, "scenario-pw")
			if err != nil {
				return nil, fmt.Errorf("scenario %s: login %s: %w", spec.Name, user, err)
			}
			tokens[t.ID] = res.AccessToken
		}
		wl.caller = func(tenant string) (core.Caller, error) {
			tok, ok := tokens[tenant]
			if !ok {
				// The untagged remainder stays on the internal anonymous
				// path (direct API calls carry their Caller explicitly).
				return callerFor(tenant), nil
			}
			return tb.Service().ResolveCaller("Bearer " + tok)
		}
	}
	// Prime once outside the measured window (container pull, pod
	// start), bypassing every cache so no scheduled key is pre-warmed.
	primeCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	_, err = tb.Service().Run(primeCtx, core.Anonymous, wl.id, wl.input(-1), core.RunOptions{NoMemo: true})
	cancel()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: prime request: %w", spec.Name, err)
	}

	cacheBefore := tb.Service().CacheStats()
	failBefore := tb.Service().FailoverStats()
	res := &bench.ScenarioResult{
		Name:        spec.Name,
		Description: spec.Description,
		SpecPath:    opts.SpecPath,
		SpecSHA256:  opts.SpecSHA,
		Seed:        spec.Seed,
		Compress:    opts.Compress,
		Spec:        spec,
	}
	start := time.Now()
	var elapsed time.Duration
	var msRestarted bool
	// A saturation stage replaces the pre-compiled schedule with a
	// runtime binary search: each probe's load depends on the previous
	// probe's outcome, so it cannot be laid out up front.
	if sat := effective.SaturationStage(); sat != nil {
		elapsed = searchSaturation(*sat, wl, res, start, progress)
	} else if elapsed, msRestarted, err = runStages(sched, tb, wl, res, start, progress); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	if msRestarted {
		// The restart reset the service's counters; the pre-restart
		// baselines would make the deltas below underflow. Fold them to
		// zero — pre-restart cache hits are forfeited from the rate.
		cacheBefore = core.CacheStats{}
		failBefore = core.FailoverStats{}
	}
	cacheAfter := tb.Service().CacheStats()
	failAfter := tb.Service().FailoverStats()
	lookups := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Collapsed - cacheBefore.Collapsed) +
		(cacheAfter.Misses - cacheBefore.Misses)
	if lookups > 0 {
		hits := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Collapsed - cacheBefore.Collapsed)
		res.CacheHitRate = round4(float64(hits) / float64(lookups))
	}
	res.Failovers = map[string]uint64{
		"lost":         failAfter.Lost - failBefore.Lost,
		"redispatched": failAfter.Redispatched - failBefore.Redispatched,
		"exhausted":    failAfter.Exhausted - failBefore.Exhausted,
	}

	res.Assertions, res.Passed = evalAssertions(spec.Assertions, res, opts.Compress)
	for _, a := range res.Assertions {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		progress("  assert %s: want %g, got %g — %s", a.Name, a.Want, a.Got, verdict)
	}
	return &bench.Report{
		Started:    start.UTC(),
		DurationMS: elapsed.Milliseconds(),
		Scenario:   res,
	}, nil
}

// outcome is one request's result as its worker saw it.
type outcome struct {
	latency time.Duration
	err     error
}

// drive is the load executor every schedule runs on. A pacer releases
// each request at its offset from start to the workload's clients
// workers, which bound the concurrency: a burst beyond them queues in
// order. A request's latency is timed from worker pickup. drive returns
// the outcomes in schedule order and the wall time until the last
// request completed.
func drive(wl *workload, reqs []Request, start time.Time) ([]outcome, time.Duration) {
	outcomes := make([]outcome, len(reqs))
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < wl.spec.Workload.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				t0 := time.Now()
				err := wl.issue(reqs[idx].Tenant, reqs[idx].Key)
				outcomes[idx] = outcome{latency: time.Since(t0), err: err}
			}
		}()
	}
	for idx, req := range reqs {
		if d := time.Until(start.Add(req.Offset)); d > 0 {
			time.Sleep(d)
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	return outcomes, time.Since(start)
}

// runStages drives the compiled schedule beside its fault timeline and
// fills the result's stage, total and tenant rows. It reports whether a
// restart_ms fault reset the service's counters.
func runStages(sched *Schedule, tb *bench.Testbed, wl *workload, res *bench.ScenarioResult, start time.Time, progress func(string, ...any)) (time.Duration, bool, error) {
	stop := make(chan struct{})
	var timelineWG sync.WaitGroup

	// Fault timeline: apply each event at its offset. Drain blocks
	// until migration completes, so events run in their own goroutine
	// off the pacer's critical path. msRestarted (read only after
	// timelineWG.Wait) records that a restart_ms reset the service
	// counters mid-run.
	var msRestarted bool
	var faultErr error
	timelineWG.Add(1)
	go func() {
		defer timelineWG.Done()
		for _, f := range sched.Faults {
			select {
			case <-time.After(time.Until(start.Add(f.At))):
			case <-stop:
				return
			}
			progress("  fault @%s: %s %s", time.Since(start).Round(time.Millisecond), f.Kind, f.TMID)
			if err := applyFault(tb, wl, f); err != nil {
				progress("  fault %s %s FAILED: %v", f.Kind, f.TMID, err)
				if f.Kind == "restart_ms" && faultErr == nil {
					// A failed recovery invalidates the whole run: the
					// fault exists to prove state survives the restart.
					faultErr = fmt.Errorf("restart_ms: %w", err)
				}
				continue
			}
			if f.Kind == "restart_ms" {
				msRestarted = true
			}
		}
	}()

	// Stage boundary marks: heap-allocation counters per window, for
	// the allocs-per-op trend line.
	mallocMarks := make([]uint64, len(sched.Windows)+1)
	mallocMarks[0] = readMallocs()
	timelineWG.Add(1)
	go func() {
		defer timelineWG.Done()
		for i, w := range sched.Windows {
			select {
			case <-time.After(time.Until(start.Add(w.End))):
			case <-stop:
				return
			}
			mallocMarks[i+1] = readMallocs()
			progress("  stage %q done @%s", w.Name, time.Since(start).Round(time.Millisecond))
		}
	}()

	outcomes, elapsed := drive(wl, sched.Requests, start)
	close(stop)
	timelineWG.Wait()
	if faultErr != nil {
		return 0, false, faultErr
	}

	byStage := make([][]outcome, len(sched.Windows))
	for i, o := range outcomes {
		byStage[sched.Requests[i].Stage] = append(byStage[sched.Requests[i].Stage], o)
	}
	for i, w := range sched.Windows {
		sr := stageStats(w.Name, w.Kind, w.End-w.Start, byStage[i])
		if d := int64(mallocMarks[i+1] - mallocMarks[i]); mallocMarks[i+1] > 0 && sr.Completed > 0 {
			sr.AllocsPerOp = round2(float64(d) / float64(sr.Completed))
		}
		res.Stages = append(res.Stages, sr)
	}
	res.Totals = stageStats("total", "", elapsed, outcomes)
	if len(wl.spec.Tenants) > 0 {
		res.Tenants = tenantResults(sched.Requests, outcomes, elapsed, tb.Service().TenantStatsAll())
	}
	return elapsed, msRestarted, nil
}

// tenantTag renders a schedule tenant tag the way the service's stats
// do: the untagged remainder is the anonymous tenant.
func tenantTag(tenant string) string {
	if tenant == "" {
		return auth.AnonymousTenantID
	}
	return tenant
}

// tenantResults folds each tenant's client outcomes together with the
// service-side admission and fairness counters.
func tenantResults(reqs []Request, outcomes []outcome, elapsed time.Duration, svc map[string]core.TenantStats) map[string]bench.TenantResult {
	byTag := map[string][]outcome{}
	for tag := range svc {
		byTag[tag] = nil
	}
	for i, o := range outcomes {
		tag := tenantTag(reqs[i].Tenant)
		byTag[tag] = append(byTag[tag], o)
	}
	out := make(map[string]bench.TenantResult, len(byTag))
	for tag, outs := range byTag {
		sr := stageStats(tag, "", elapsed, outs)
		st := svc[tag]
		out[tag] = bench.TenantResult{
			Offered:          sr.Offered,
			Completed:        sr.Completed,
			Errors:           sr.Errors,
			P50MS:            sr.P50MS,
			P95MS:            sr.P95MS,
			P99MS:            sr.P99MS,
			Throughput:       sr.Throughput,
			Admitted:         st.Admitted,
			RejectedQuota:    st.RejectedQuota,
			RejectedOverload: st.RejectedOverload,
			DequeueShare:     round4(st.DequeueShare),
		}
	}
	return out
}

// satAchievedFraction is the fraction of the offered rate a probe must
// actually complete to count as sustained: when the service saturates,
// workers fall behind the pacer, the probe's wall time stretches and
// achieved throughput drops below the offered rate.
const satAchievedFraction = 0.9

// searchSaturation binary-searches offered req/s between the stage's
// start_rate and rate. Each probe is a one-stage steady schedule of the
// stage's duration, driven like any other; it is sustained when it
// completes error-free at >= satAchievedFraction of the offered rate.
// The highest sustained rate is reported as saturation_rps, with
// per-probe latency percentiles and allocs/op as the capacity profile.
func searchSaturation(sat StageSpec, wl *workload, res *bench.ScenarioResult, start time.Time, progress func(string, ...any)) time.Duration {
	keys := newKeyPicker(wl.spec, rand.New(rand.NewSource(wl.spec.Seed)))
	lo, hi := sat.StartRate, sat.Rate
	var ceiling float64
	var all []outcome
	mStart := readMallocs()
	for probe := 1; probe <= sat.Probes; probe++ {
		rate := (lo + hi) / 2
		m0 := readMallocs()
		// Keys are drawn before the probe starts, so the shared picker
		// is never touched concurrently.
		var reqs []Request
		for _, off := range stageOffsets(StageSpec{Kind: "steady", Duration: sat.Duration, Rate: rate}) {
			reqs = append(reqs, Request{Offset: off, Key: keys.next()})
		}
		outcomes, probeElapsed := drive(wl, reqs, time.Now())
		sr := stageStats(fmt.Sprintf("probe-%d-%.0frps", probe, rate), "saturation", probeElapsed, outcomes)
		if m1 := readMallocs(); sr.Completed > 0 {
			sr.AllocsPerOp = round2(float64(m1-m0) / float64(sr.Completed))
		}
		res.Stages = append(res.Stages, sr)
		all = append(all, outcomes...)
		achieved := 0.0
		if secs := probeElapsed.Seconds(); secs > 0 {
			achieved = float64(sr.Completed) / secs
		}
		sustained := sr.Errors == 0 && achieved >= satAchievedFraction*rate
		verdict := "OVER"
		if sustained {
			ceiling, lo, verdict = rate, rate, "sustained"
		} else {
			hi = rate
		}
		progress("  probe %d/%d @%.0f req/s: achieved %.0f req/s, %d errors — %s",
			probe, sat.Probes, rate, achieved, sr.Errors, verdict)
	}
	elapsed := time.Since(start)
	res.Totals = stageStats("total", "", elapsed, all)
	// Run-wide allocs/op feeds the -diff gate (stage-windowed runs leave
	// totals allocs at 0 — the windows overlap fault goroutines there).
	if mEnd := readMallocs(); res.Totals.Completed > 0 {
		res.Totals.AllocsPerOp = round2(float64(mEnd-mStart) / float64(res.Totals.Completed))
	}
	res.SaturationRPS = round2(ceiling)
	progress("  saturation ceiling: %.0f req/s", res.SaturationRPS)
	return elapsed
}

// stageStats folds one window's outcomes into a StageResult.
func stageStats(name, kind string, d time.Duration, outcomes []outcome) bench.StageResult {
	lat := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		if o.err == nil {
			lat = append(lat, o.latency)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sr := bench.StageResult{
		Name:       name,
		Kind:       kind,
		DurationMS: d.Milliseconds(),
		Offered:    len(outcomes),
		Completed:  len(lat),
		Errors:     len(outcomes) - len(lat),
	}
	if len(lat) > 0 {
		sr.P50MS = round2(float64(metrics.Percentile(lat, 50)) / float64(time.Millisecond))
		sr.P95MS = round2(float64(metrics.Percentile(lat, 95)) / float64(time.Millisecond))
		sr.P99MS = round2(float64(metrics.Percentile(lat, 99)) / float64(time.Millisecond))
	}
	if secs := d.Seconds(); secs > 0 {
		sr.Throughput = round2(float64(len(lat)) / secs)
	}
	return sr
}

// evalAssertions checks every spec assertion against the totals.
// Count-based bounds (min_requests) are written for the full-scale run
// and scale down with compression; rate- and fraction-based bounds
// hold at any compression because rates are preserved.
func evalAssertions(asserts []Assertion, res *bench.ScenarioResult, compress float64) ([]bench.AssertionResult, bool) {
	out := make([]bench.AssertionResult, 0, len(asserts))
	passed := true
	for _, a := range asserts {
		base, tenant := splitAssertion(a.Name)
		want := a.Value
		// Count-based minimums are written for the full-scale run and
		// scale down with compression; rates and fractions hold as-is.
		if (base == "min_requests" || base == "min_quota_rejections") && compress > 1 {
			want = a.Value / compress
		}
		var got float64
		if tenant != "" {
			// Tenant-qualified bound: evaluate against that tenant's
			// slice of the run.
			tr := res.Tenants[tenant]
			switch base {
			case "max_error_rate":
				if tr.Offered > 0 {
					got = round4(float64(tr.Errors) / float64(tr.Offered))
				}
			case "max_p99_ms":
				got = tr.P99MS
			case "min_throughput":
				got = tr.Throughput
			case "min_requests":
				got = float64(tr.Completed)
			case "min_quota_rejections", "max_quota_rejections":
				got = float64(tr.RejectedQuota)
			case "max_overload_rejections":
				got = float64(tr.RejectedOverload)
			}
		} else {
			switch base {
			case "max_error_rate":
				if res.Totals.Offered > 0 {
					got = round4(float64(res.Totals.Errors) / float64(res.Totals.Offered))
				}
			case "min_cache_hit_rate", "max_cache_hit_rate":
				got = res.CacheHitRate
			case "min_throughput":
				got = res.Totals.Throughput
			case "max_p99_ms":
				got = res.Totals.P99MS
			case "min_redispatched":
				got = float64(res.Failovers["redispatched"])
			case "min_requests":
				got = float64(res.Totals.Completed)
			case "min_saturation_rps":
				// A rate, not a count: compression shrinks probe windows but
				// not rates, so the bound holds unscaled.
				got = res.SaturationRPS
			case "min_quota_rejections", "max_quota_rejections":
				for _, tr := range res.Tenants {
					got += float64(tr.RejectedQuota)
				}
			case "max_overload_rejections":
				for _, tr := range res.Tenants {
					got += float64(tr.RejectedOverload)
				}
			}
		}
		pass := got <= want
		if strings.HasPrefix(base, "min_") {
			pass = got >= want
		}
		out = append(out, bench.AssertionResult{Name: a.Name, Want: want, Got: got, Pass: pass})
		passed = passed && pass
	}
	return out, passed
}

// workload binds the spec's workload to published servables.
type workload struct {
	id    string
	spec  *Spec
	tb    *bench.Testbed
	input func(key int) any
	// issue sends one request with the spec's cache option.
	issue func(tenant string, key int) error
	// caller maps a request's tenant tag to its Caller. The default is
	// the tag-only anonymous caller; auth mode swaps in per-tenant
	// token resolution.
	caller func(tenant string) (core.Caller, error)
	// steps are the servables (pipeline steps or the single servable)
	// to re-deploy after a redeploy:true fault; step i prefers site
	// placementSite(i).
	steps []string
}

// placementSites lists the 1-based sites a step deploys to.
func (w *workload) placementSites(step int) []int {
	if w.spec.Workload.Disjoint {
		return []int{step%w.spec.Topology.TMs + 1}
	}
	sites := make([]int, 0, w.spec.Workload.Placements)
	for i := 1; i <= w.spec.Workload.Placements; i++ {
		sites = append(sites, i)
	}
	return sites
}

// deployAll places every step per the spec's placement policy.
func (w *workload) deployAll(ctx context.Context) error {
	for i, id := range w.steps {
		for _, site := range w.placementSites(i) {
			if err := w.tb.Service().DeployTo(ctx, core.Anonymous, id, w.spec.Workload.Replicas, "parsl", TMID(site)); err != nil {
				return fmt.Errorf("deploy step %d to %s: %w", i, TMID(site), err)
			}
		}
	}
	return nil
}

// redeployTo re-places the steps that belong on the given site, used
// after a redeploy:true rejoin/restart fault (a drain migrated the
// site's placements away).
func (w *workload) redeployTo(ctx context.Context, tmID string) error {
	for i, id := range w.steps {
		for _, site := range w.placementSites(i) {
			if TMID(site) != tmID {
				continue
			}
			if err := w.tb.Service().DeployTo(ctx, core.Anonymous, id, w.spec.Workload.Replicas, "parsl", tmID); err != nil {
				return err
			}
		}
	}
	return nil
}

// setupWorkload publishes and deploys the spec's servables.
func setupWorkload(tb *bench.Testbed, spec *Spec) (*workload, error) {
	w := &workload{spec: spec, tb: tb}
	w.caller = func(tenant string) (core.Caller, error) { return callerFor(tenant), nil }
	ctx := context.Background()
	switch spec.Workload.Servable {
	case "synthetic":
		entry := "scenario:" + spec.Name
		work := spec.Workload.Work.D()
		pyruntime.Register(entry, func(arg any) (any, error) {
			time.Sleep(work)
			// Output is a pure function of the input, so results are
			// cacheable and key distributions translate into hit rates.
			return fmt.Sprintf("%v:done", arg), nil
		})
		id, err := tb.MS.Publish(ctx, core.Anonymous, &servable.Package{
			Doc: &schema.Document{
				Publication: schema.Publication{
					Name:      "scenario-" + spec.Name,
					Title:     "scenario synthetic workload",
					Authors:   []string{"bench"},
					VisibleTo: []string{"public"},
				},
				Servable: schema.Servable{
					Type:   schema.TypePythonFunction,
					Entry:  entry,
					Input:  schema.DataType{Kind: "string"},
					Output: schema.DataType{Kind: "string"},
				},
			},
		})
		if err != nil {
			return nil, err
		}
		w.id = id
		w.steps = []string{id}
		w.input = func(key int) any { return fmt.Sprintf("key-%d", key) }
	case "matminer":
		utilID, err := tb.MS.Publish(ctx, core.Anonymous, servable.MatminerUtilPackage())
		if err != nil {
			return nil, err
		}
		featID, err := tb.MS.Publish(ctx, core.Anonymous, servable.MatminerFeaturizePackage())
		if err != nil {
			return nil, err
		}
		pipe := &servable.Package{Doc: servable.PipelineDoc(
			"scenario-"+spec.Name, "scenario pipeline workload", []string{utilID, featID})}
		pipeID, err := tb.MS.Publish(ctx, core.Anonymous, pipe)
		if err != nil {
			return nil, err
		}
		w.id = pipeID
		w.steps = []string{utilID, featID}
		w.input = func(key int) any {
			if key < 0 {
				key = len(matminerFormulas) - 1
			}
			return matminerFormulas[key%len(matminerFormulas)]
		}
	}
	if err := w.deployAll(ctx); err != nil {
		return nil, err
	}
	// Issue through tb.Service(), resolved per call: a restart_ms fault
	// swaps the service mid-run and later requests must hit the new one.
	opts := core.RunOptions{NoCache: spec.Workload.NoCache}
	switch spec.Workload.Kind {
	case "run", "pipeline":
		w.issue = func(tenant string, key int) error {
			c, err := w.caller(tenant)
			if err != nil {
				return err
			}
			_, err = tb.Service().Run(ctx, c, w.id, w.input(key), opts)
			return err
		}
	case "run_batch":
		w.issue = func(tenant string, key int) error {
			c, err := w.caller(tenant)
			if err != nil {
				return err
			}
			inputs := make([]any, spec.Workload.BatchSize)
			for i := range inputs {
				inputs[i] = fmt.Sprintf("%v-%d", w.input(key), i)
			}
			_, err = tb.Service().RunBatch(ctx, c, w.id, inputs, opts)
			return err
		}
	}
	return w, nil
}

// callerFor tags a scheduled request with its tenant. Untagged
// requests stay the plain anonymous caller — the pre-tenancy path.
func callerFor(tenant string) core.Caller {
	c := core.Anonymous
	c.Tenant = tenant
	return c
}

// applyFault executes one fault event against the testbed.
func applyFault(tb *bench.Testbed, wl *workload, f FaultEvent) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	switch f.Kind {
	case "kill":
		return tb.KillTM(f.TMID)
	case "restart":
		if _, err := tb.RestartTM(f.TMID); err != nil {
			return err
		}
	case "drain":
		if _, err := tb.Service().DrainTM(ctx, f.TMID); err != nil {
			return err
		}
		return nil
	case "rejoin":
		if err := tb.Service().RejoinTM(ctx, f.TMID); err != nil {
			return err
		}
	case "restart_ms":
		return tb.RestartMS()
	}
	if f.Redeploy {
		return wl.redeployTo(ctx, f.TMID)
	}
	return nil
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round4(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }
