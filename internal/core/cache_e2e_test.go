package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// fakeTM is a scripted Task Manager: it registers with the Management
// Service and answers every task with a canned reply, optionally
// holding each task until released. It gives the cache and routing
// tests exact control over TM-side latency and observability of how
// many tasks actually reached a site.
type fakeTM struct {
	id      string
	handled atomic.Int64
	block   chan struct{} // when non-nil, each task waits for one receive
}

func startFakeTM(t *testing.T, ms *core.Service, id string, block chan struct{}) *fakeTM {
	t.Helper()
	f := &fakeTM{id: id, block: block}
	reg, err := json.Marshal(taskmanager.Registration{TMID: id, Executors: []string{"parsl"}})
	if err != nil {
		t.Fatal(err)
	}
	ms.Broker().Push(taskmanager.RegisterQueue, reg, "", "", "")
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			msg, ok := ms.Broker().PullCtx(context.Background(), taskmanager.TaskQueue(id), 50*time.Millisecond)
			if !ok {
				continue
			}
			if f.block != nil {
				select {
				case <-f.block:
				case <-stop:
					return
				}
			}
			task, err := taskmanager.DecodeTask(msg.Body)
			if err != nil {
				continue
			}
			rep, _ := taskmanager.EncodeReply(taskmanager.Reply{TaskID: task.ID, OK: true, Output: "from-" + id})
			// Counted before the reply: a caller that has its answer must
			// already see the task in the count.
			f.handled.Add(1)
			ms.Broker().Reply(msg, rep)
		}
	}()
	return f
}

func newCachedMS(t *testing.T, cache core.CacheConfig) *core.Service {
	t.Helper()
	ms := core.New(core.Config{Registry: container.NewRegistry(), Cache: cache})
	t.Cleanup(ms.Close)
	return ms
}

func publishNoop(t *testing.T, ms *core.Service) string {
	t.Helper()
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestServiceCacheHitMissBypass(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{})
	tm := startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	r1, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first run must miss")
	}
	r2, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || !r2.Cached {
		t.Fatalf("second identical run must hit the service cache: %+v", r2)
	}
	if !bytes.Equal(r2.Output, r1.Output) || r2.TaskID != r1.TaskID {
		t.Fatalf("a hit carries the stored result: %s (%s) vs %s (%s)", r2.Output, r2.TaskID, r1.Output, r1.TaskID)
	}
	if got := tm.handled.Load(); got != 1 {
		t.Fatalf("hit must not reach the TM: handled=%d", got)
	}

	// NoCache bypasses the service layer (task dispatches again).
	r3, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("NoCache run must bypass the service cache")
	}
	// NoMemo bypasses every memoization tier.
	if r4, _ := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{NoMemo: true}); r4.CacheHit {
		t.Fatal("NoMemo run must bypass the service cache")
	}
	if got := tm.handled.Load(); got != 3 {
		t.Fatalf("bypass runs must reach the TM: handled=%d", got)
	}

	st := ms.CacheStats()
	if st.Hits != 1 || st.Misses < 1 || st.Entries != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// TestServiceCacheHitRequiresVisibility: the ACL check comes before the
// lookup. A caller who cannot see the servable gets not_found on a
// request whose answer is cached — without the cache being consulted, and
// whether or not the owner's run is still in flight to share.
func TestServiceCacheHitRequiresVisibility(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{})
	tm := startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.VisibleTo = nil // owner-only
	id, err := ms.Publish(context.Background(), core.Anonymous, pkg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, wantHit := range []bool{false, true} {
		res, err := ms.Run(ctx, core.Anonymous, id, "secret", core.RunOptions{})
		if err != nil || res.CacheHit != wantHit {
			t.Fatalf("owner: hit %v (want %v), err %v", res.CacheHit, wantHit, err)
		}
	}
	before := ms.CacheStats()
	eve := core.Caller{IdentityID: "urn:identity:local:eve", Principals: []string{"public", "urn:identity:local:eve"}}
	if _, err := ms.Run(ctx, eve, id, "secret", core.RunOptions{}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("a caller who cannot see the servable ran it: %v", err)
	}
	if _, err := ms.RunBatch(ctx, eve, id, []any{"secret"}, core.RunOptions{}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("a caller who cannot see the servable ran a batch on it: %v", err)
	}
	if after := ms.CacheStats(); after != before {
		t.Fatalf("the refused runs touched the cache: %+v -> %+v", before, after)
	}
	if got := tm.handled.Load(); got != 1 {
		t.Fatalf("TM handled %d tasks, want the owner's one", got)
	}
}

func TestServiceCacheDistinctInputsMiss(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{})
	tm := startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)
	for i := 0; i < 4; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, i, core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tm.handled.Load(); got != 4 {
		t.Fatalf("distinct inputs must all dispatch: handled=%d", got)
	}
}

func TestServiceCacheInvalidation(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{})
	tm := startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	warm := func() {
		t.Helper()
		if _, err := ms.Run(context.Background(), core.Anonymous, id, "in", core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	assertHit := func(want bool, why string) {
		t.Helper()
		res, err := ms.Run(context.Background(), core.Anonymous, id, "in", core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit != want {
			t.Fatalf("%s: CacheHit=%v want %v", why, res.CacheHit, want)
		}
	}

	warm()
	assertHit(true, "warm cache")

	// Re-publishing bumps the version: old results are stale.
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	assertHit(false, "after republish")
	assertHit(true, "rewarmed at v2")

	// Metadata updates invalidate.
	err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) {
		p.Description = "updated"
	})
	if err != nil {
		t.Fatal(err)
	}
	assertHit(false, "after metadata update")

	if st := ms.CacheStats(); st.Invalidations < 2 {
		t.Fatalf("want >=2 invalidations, got %+v", st)
	}
	if tm.handled.Load() != 3 { // warm + republish miss + update miss
		t.Fatalf("unexpected TM traffic: %d", tm.handled.Load())
	}
}

func TestServiceCacheTTLExpiry(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{TTL: 30 * time.Millisecond})
	tm := startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	if _, err := ms.Run(context.Background(), core.Anonymous, id, "in", core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := ms.Run(context.Background(), core.Anonymous, id, "in", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("within TTL should hit")
	}
	time.Sleep(60 * time.Millisecond)
	res, err = ms.Run(context.Background(), core.Anonymous, id, "in", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("expired entry should miss")
	}
	if tm.handled.Load() != 2 {
		t.Fatalf("want 2 dispatches (initial + post-expiry), got %d", tm.handled.Load())
	}
	if st := ms.CacheStats(); st.Expirations < 1 {
		t.Fatalf("want an expiration, got %+v", st)
	}
}

func TestSingleflightCollapsesConcurrentRuns(t *testing.T) {
	release := make(chan struct{})
	ms := newCachedMS(t, core.CacheConfig{})
	tm := startFakeTM(t, ms, "tm-1", release)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	const concurrency = 8
	var wg sync.WaitGroup
	var hits atomic.Int64
	errs := make([]error, concurrency)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{})
			errs[i] = err
			if err == nil && res.CacheHit {
				hits.Add(1)
			}
		}(i)
	}
	// Let every request reach the flight group, then release the one
	// dispatched task.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := tm.handled.Load(); got != 1 {
		t.Fatalf("singleflight should dispatch exactly one task, TM saw %d", got)
	}
	if hits.Load() != concurrency-1 {
		t.Fatalf("want %d collapsed callers marked as hits, got %d", concurrency-1, hits.Load())
	}
	if st := ms.CacheStats(); st.Collapsed != concurrency-1 {
		t.Fatalf("want Collapsed=%d, got %+v", concurrency-1, st)
	}
}

// TestSingleflightFollowerOwnDeadline: a follower waits for its leader
// under its own deadline, not the leader's.
func TestSingleflightFollowerOwnDeadline(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	id := publishNoop(t, ms)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ms.Run(leaderCtx, core.Anonymous, id, "slow", core.RunOptions{}) //nolint:errcheck — canceled below
	}()
	defer func() { cancelLeader(); <-leaderDone }()
	waitFor(t, time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ms.Run(ctx, core.Anonymous, id, "slow", core.RunOptions{})
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("follower: want ErrTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("follower waited %v, wanted ~20ms", elapsed)
	}
	if load := ms.TMLoad()[tmID]; load != 1 {
		t.Fatalf("the follower dispatched: TM load %d, want the leader's 1", load)
	}
}

// TestArrivalAfterInvalidationLeads: a request that arrives after an
// invalidation — a flush, or a change to the servable — while an
// identical request is in flight dispatches its own task instead of
// joining the older one, and the older one's result is not stored.
func TestArrivalAfterInvalidationLeads(t *testing.T) {
	for name, invalidate := range map[string]func(*core.Service, string) error{
		"flush": func(ms *core.Service, _ string) error { ms.FlushCache(); return nil },
		"metadata": func(ms *core.Service, id string) error {
			return ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) { p.Description = "edited" })
		},
	} {
		t.Run(name, func(t *testing.T) {
			ms, tmID := blackHoleTM(t)
			id := publishNoop(t, ms)
			type out struct {
				res core.RunResult
				err error
			}
			run := func() chan out {
				ch := make(chan out, 1)
				go func() {
					res, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
					ch <- out{res, err}
				}()
				return ch
			}
			older := run()
			waitFor(t, time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })
			if err := invalidate(ms, id); err != nil {
				t.Fatal(err)
			}
			newer := run()
			waitFor(t, time.Second, func() bool { return ms.TMLoad()[tmID] == 2 })

			replyOnce(t, ms, tmID, "before") // the older task is first in the queue
			if o := <-older; o.err != nil || string(o.res.Output) != `"before"` {
				t.Fatalf("older: %s, %v", o.res.Output, o.err)
			}
			if st := ms.CacheStats(); st.Entries != 0 {
				t.Fatalf("the result from before the invalidation was stored: %+v", st)
			}
			replyOnce(t, ms, tmID, "after")
			if o := <-newer; o.err != nil || o.res.CacheHit || string(o.res.Output) != `"after"` {
				t.Fatalf("newer: %s (hit %v), %v", o.res.Output, o.res.CacheHit, o.err)
			}
			res, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
			if err != nil || !res.CacheHit || string(res.Output) != `"after"` {
				t.Fatalf("want a hit on the newer result, got %s (hit %v), %v", res.Output, res.CacheHit, err)
			}
		})
	}
}

func TestLeastOutstandingRouting(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{Disabled: true})
	release := make(chan struct{})
	busy := startFakeTM(t, ms, "tm-busy", release)
	idle := startFakeTM(t, ms, "tm-idle", nil)
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	// Occupy tm-busy: fire runs until the load map shows it holding
	// one (round-robin tiebreak may hand the first to either TM).
	// Buffered, and stuck falls before the send: the drain loop at the
	// end waits on done only while a sender is still to come.
	done := make(chan struct{}, 64)
	var stuck atomic.Int64
	fire := func(input any) {
		stuck.Add(1)
		go func() {
			ms.Run(context.Background(), core.Anonymous, id, input, core.RunOptions{}) //nolint:errcheck
			stuck.Add(-1)
			done <- struct{}{}
		}()
	}
	fire("a")
	deadline := time.Now().Add(2 * time.Second)
	for ms.TMLoad()["tm-busy"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tm-busy never received a task")
		}
		select {
		case <-done: // landed on tm-idle and finished; try again
			fire("b")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// With tm-busy stuck at load 1, every new request must route to
	// the idle TM (load 0) — blind round-robin would alternate.
	idleBefore := idle.handled.Load()
	for i := 0; i < 5; i++ {
		res, err := ms.Run(context.Background(), core.Anonymous, id, i, core.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Output) != `"from-tm-idle"` {
			t.Fatalf("request %d routed to the busy TM: %s", i, res.Output)
		}
	}
	if got := idle.handled.Load() - idleBefore; got != 5 {
		t.Fatalf("idle TM should have served all 5, served %d", got)
	}
	if busy.handled.Load() != 0 {
		t.Fatalf("busy TM should still be holding its task, handled %d", busy.handled.Load())
	}

	// Release the stuck task; load drains and both TMs are usable.
	close(release)
	for stuck.Load() > 0 {
		<-done
	}
	if load := ms.TMLoad(); load["tm-busy"] != 0 || load["tm-idle"] != 0 {
		t.Fatalf("load should drain to zero: %v", load)
	}
}

func TestCacheHTTPHeaderAndStats(t *testing.T) {
	ms := newCachedMS(t, core.CacheConfig{})
	startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	post := func(body map[string]any) (*http.Response, map[string]any) {
		t.Helper()
		data, _ := json.Marshal(body)
		resp, err := srv.Client().Post(srv.URL+"/api/v2/servables/"+id+"/run", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env struct {
			Data map[string]any `json:"data"`
		}
		json.Unmarshal(raw, &env) //nolint:errcheck
		return resp, env.Data
	}

	resp, _ := post(map[string]any{"input": "x"})
	if got := resp.Header.Get(core.CacheHeader); got != "miss" {
		t.Fatalf("first run header = %q, want miss", got)
	}
	resp, out := post(map[string]any{"input": "x"})
	if got := resp.Header.Get(core.CacheHeader); got != "hit" {
		t.Fatalf("second run header = %q, want hit", got)
	}
	if out["cache_hit"] != true {
		t.Fatalf("body should flag cache_hit: %v", out)
	}
	resp, _ = post(map[string]any{"input": "x", "no_cache": true})
	if got := resp.Header.Get(core.CacheHeader); got != "bypass" {
		t.Fatalf("no_cache header = %q, want bypass", got)
	}

	// Pipelines participate per step: the first run shares step 1's
	// entry with the plain runs above (same key space) but dispatches
	// step 2 — a miss overall; repeating it serves every step from
	// cache and reports a hit.
	pipeDoc := pipelineDoc("hdr-pipe", []string{id, id})
	pipeID, err := ms.Publish(context.Background(), core.Anonymous, &servable.Package{Doc: pipeDoc})
	if err != nil {
		t.Fatal(err)
	}
	pipeRun := func() *http.Response {
		t.Helper()
		pdata, _ := json.Marshal(map[string]any{"input": "x"})
		presp, err := srv.Client().Post(srv.URL+"/api/v2/servables/"+pipeID+"/run", "application/json", bytes.NewReader(pdata))
		if err != nil {
			t.Fatal(err)
		}
		presp.Body.Close()
		return presp
	}
	if got := pipeRun().Header.Get(core.CacheHeader); got != "miss" {
		t.Fatalf("first pipeline run header = %q, want miss", got)
	}
	if got := pipeRun().Header.Get(core.CacheHeader); got != "hit" {
		t.Fatalf("repeated pipeline run header = %q, want hit", got)
	}

	// Stats endpoint: 1 plain hit + 1 step hit on the first pipeline
	// run + 2 step hits on the repeat; entries for the two step keys.
	sresp, err := srv.Client().Get(srv.URL + "/api/v2/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statsEnv struct {
		Data struct {
			Enabled bool            `json:"enabled"`
			Stats   core.CacheStats `json:"stats"`
		} `json:"data"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&statsEnv); err != nil {
		t.Fatal(err)
	}
	stats := statsEnv.Data
	if !stats.Enabled || stats.Stats.Hits != 4 || stats.Stats.Entries != 2 {
		t.Fatalf("stats endpoint wrong: %+v", stats)
	}

	// Flush wipes entries but keeps counters.
	fresp, err := srv.Client().Post(srv.URL+"/api/v2/cache/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if st := ms.CacheStats(); st.Entries != 0 || st.Hits != 4 {
		t.Fatalf("flush wrong: %+v", st)
	}
}
