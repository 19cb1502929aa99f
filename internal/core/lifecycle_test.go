package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// TM lifecycle: graceful drain, dead-TM failover, per-placement
// undeploy. These tests pin the acceptance contracts of the lifecycle
// subsystem: a drained TM receives no new tasks, its placements land
// on survivors, a killed TM's in-flight runs fail over instead of
// timing out, and routing falls back sanely when placements name
// unroutable sites.

func deployNoopOn(t *testing.T, ms *core.Service, tms ...string) string {
	t.Helper()
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range tms {
		if err := ms.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", tm); err != nil {
			t.Fatal(err)
		}
	}
	return id
}

// heartbeat forges periodic TM registrations (what a live TM's
// heartbeat loop sends); calling the returned stop is the abrupt kill —
// from the service's perspective indistinguishable from kill -9.
func heartbeat(ms *core.Service, tmID string) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(40 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				body, _ := json.Marshal(taskmanager.Registration{TMID: tmID})
				ms.Broker().Push(taskmanager.RegisterQueue, body, "", "", "")
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// awaitStatsSettled waits until a TM's completed-task count stops
// moving (e.g. the best-effort undeploy teardown a drain dispatches has
// landed), then returns it.
func awaitStatsSettled(t *testing.T, tm *taskmanager.TM) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev, _ := tm.Stats()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		cur, _ := tm.Stats()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	t.Fatal("TM stats never settled")
	return 0
}

// A drained TM must receive no new tasks: with the servable placed on
// both sites, every post-drain run lands on the survivor.
func TestDrainedTMReceivesNoNewTasks(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	tmB := newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "site-a", "site-b")

	res, err := ms.DrainTM(context.Background(), "site-a")
	if err != nil {
		t.Fatal(err)
	}
	// site-b already hosts the servable: the drained placement is
	// removed, not migrated.
	if len(res.Migrated) != 0 {
		t.Fatalf("expected no migrations (site-b already hosts it), got %v", res.Migrated)
	}
	placed, err := ms.ServablePlacements(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0] != "site-b" {
		t.Fatalf("placements after drain = %v, want [site-b]", placed)
	}

	// The drain dispatches a best-effort undeploy teardown to site-a;
	// let it land before snapshotting, so the assertion below counts
	// only would-be serving tasks.
	doneA := awaitStatsSettled(t, tmA)
	for i := 0; i < 8; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, fmt.Sprintf("post-drain-%d", i), core.RunOptions{}); err != nil {
			t.Fatalf("run %d after drain: %v", i, err)
		}
	}
	if after, _ := tmA.Stats(); after != doneA {
		t.Fatalf("drained TM served new tasks: completed %d -> %d", doneA, after)
	}
	if doneB, _ := tmB.Stats(); doneB == 0 {
		t.Fatal("survivor served nothing")
	}
}

// Draining the ONLY host of a servable migrates the placement (with
// its recorded replica count) onto a survivor before removal.
func TestDrainMigratesSoleCopyPlacements(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	newSite(t, ms, "site-a")
	tmB := newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, id, 3, "parsl", "site-a"); err != nil {
		t.Fatal(err)
	}

	res, err := ms.DrainTM(context.Background(), "site-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Migrated[id]; got != "site-b" {
		t.Fatalf("migrated[%s] = %q, want site-b (full result %+v)", id, got, res)
	}
	placed, err := ms.ServablePlacements(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0] != "site-b" {
		t.Fatalf("placements after drain = %v, want [site-b]", placed)
	}
	// The autoscaler's replica record follows the migrated placement.
	if got := ms.DesiredReplicas(id); got != 3 {
		t.Fatalf("replica record lost in migration: got %d, want 3", got)
	}
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "after-migration", core.RunOptions{}); err != nil {
		t.Fatalf("run after migration: %v", err)
	}
	if doneB, _ := tmB.Stats(); doneB == 0 {
		t.Fatal("migration target served nothing")
	}

	// Drain then deregister is the full removal flow.
	if err := ms.DeregisterTM("site-a"); err != nil {
		t.Fatal(err)
	}
	for _, tm := range ms.TaskManagers() {
		if tm == "site-a" {
			t.Fatal("site-a still registered after deregister")
		}
	}
}

// A placement on a STALE peer (registered, heartbeats stopped) must
// not excuse the drain from migrating: "hosted elsewhere" means a site
// routing would actually pick — routable AND live. Regression test:
// draining site-a with the servable also "placed" on dead site-b must
// re-deploy onto live site-c, not leave the servable stranded on b.
func TestDrainMigratesPastStalePlacement(t *testing.T) {
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		TMStaleAfter: 250 * time.Millisecond,
		TaskTimeout:  30 * time.Second,
	})
	defer ms.Close()
	tmA := liveSite(t, ms, "site-a", 40*time.Millisecond)
	defer tmA.Close()
	startScriptedTM(t, ms, "site-b") // registers once, then goes stale
	tmC := liveSite(t, ms, "site-c", 40*time.Millisecond)
	defer tmC.Close()
	if err := ms.WaitForTM(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "site-a", "site-b")
	time.Sleep(400 * time.Millisecond) // site-b misses its window

	res, err := ms.DrainTM(context.Background(), "site-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Migrated[id]; got != "site-c" {
		t.Fatalf("migrated[%s] = %q, want site-c (stale site-b must not count as a host); result %+v", id, got, res)
	}
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "post-stale-migration", core.RunOptions{}); err != nil {
		t.Fatalf("run after migration: %v", err)
	}
}

// A TM that dies mid-request (kill -9: no deregistration, no goodbye —
// here a scripted TM that claims tasks, never answers, and whose forged
// heartbeats stop at the kill) must not strand its callers until their
// deadline: the watchdog detects the missed liveness window and the
// runs are re-dispatched to the other placed TM.
func TestDeadTMFailover(t *testing.T) {
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		TMStaleAfter: 250 * time.Millisecond,
		TaskTimeout:  30 * time.Second,
	})
	defer ms.Close()
	ghost := startScriptedTM(t, ms, "site-a")
	kill := heartbeat(ms, "site-a")
	defer kill()
	tmB := liveSite(t, ms, "site-b", 40*time.Millisecond)
	defer tmB.Close()
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "site-a", "site-b")

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 12)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ms.Run(context.Background(), core.Anonymous, id, fmt.Sprintf("failover-%d", i), core.RunOptions{})
		}(i)
	}
	// Wait until site-a has claimed at least one run, then kill it:
	// heartbeats stop mid-request, exactly like a crashed process.
	deadline := time.Now().Add(10 * time.Second)
	for ghost.pendingTasks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no run ever routed to site-a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()

	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d should have failed over, got %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failover took %v — callers waited out deadlines instead of re-routing", elapsed)
	}
	st := ms.FailoverStats()
	if st.Lost == 0 || st.Redispatched == 0 {
		t.Fatalf("failover counters flat after dead-TM episode: %+v", st)
	}
	if doneB, _ := tmB.Stats(); doneB == 0 {
		t.Fatal("survivor served nothing")
	}
}

// With no other routable TM, failover exhausts its options quickly and
// surfaces no_task_manager — it must not silently wait out the full
// task deadline.
func TestFailoverExhaustedWithoutSurvivor(t *testing.T) {
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		TMStaleAfter: 200 * time.Millisecond,
		TaskTimeout:  30 * time.Second,
	})
	defer ms.Close()
	ghost := startScriptedTM(t, ms, "solo")
	kill := heartbeat(ms, "solo")
	defer kill()
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "solo")

	start := time.Now()
	errCh := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, id, "doomed", core.RunOptions{})
		errCh <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for ghost.pendingTasks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never routed to solo")
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()

	err := <-errCh
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrNoTaskManager) {
		t.Fatalf("want ErrNoTaskManager, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("exhausted failover took %v — should fail fast, not wait out the 30s deadline", elapsed)
	}
	if st := ms.FailoverStats(); st.Exhausted == 0 || st.Lost == 0 {
		t.Fatalf("exhausted/lost counters flat: %+v", st)
	}
}

// Routing fallback when every placement names an unroutable TM: a
// draining placement falls back to the registered pool (a fast
// task_failed from an undeployed site beats a silent hang), and with
// no routable TM at all the run fails with no_task_manager.
func TestPickTMDrainingPlacementFallback(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Placed only on site-a, which is then marked draining with no
	// migration pass (the state a service recovers mid-drain).
	id := deployNoopOn(t, ms, "site-a")
	ms.MarkDraining("site-a")

	doneA, _ := tmA.Stats()
	_, err := ms.Run(context.Background(), core.Anonymous, id, "fallback", core.RunOptions{})
	// site-b never had the servable deployed: the fallback dispatch
	// fails THERE, fast — never on the draining site.
	if !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("want ErrTaskFailed from the fallback site, got %v", err)
	}
	if after, _ := tmA.Stats(); after != doneA {
		t.Fatal("draining site served a task routing should have excluded")
	}

	// Both sites draining: nothing routable at all.
	ms.MarkDraining("site-b")
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "nowhere", core.RunOptions{}); !errors.Is(err, core.ErrNoTaskManager) {
		t.Fatalf("want ErrNoTaskManager with every TM draining, got %v", err)
	}
}

// A deploy racing a concurrent drain of its target must never leave a
// placement on the drained TM: either the deploy loses (conflict) or
// it lands before the drain and is migrated away with everything else.
func TestDrainVsConcurrentDeploy(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", "site-a"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var deployErrs []error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ms.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", "site-a"); err != nil {
				deployErrs = append(deployErrs, err)
			}
		}
	}()
	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Deploys that lost the race must have failed with conflict (the
	// draining check), never recorded.
	for _, derr := range deployErrs {
		if !errors.Is(derr, core.ErrConflict) {
			t.Fatalf("racing deploy failed with %v, want ErrConflict", derr)
		}
	}
	placed, err := ms.ServablePlacements(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range placed {
		if tm == "site-a" {
			t.Fatalf("drained TM still placed after concurrent deploys: %v", placed)
		}
	}
	if len(deployErrs) == 0 {
		t.Log("no deploy lost the race this run (timing); invariant still verified via placements")
	}
}

// Per-placement undeploy shrinks placement without unpublishing.
func TestUndeployRemovesOnePlacement(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "site-a", "site-b")

	if err := ms.Undeploy(context.Background(), core.Anonymous, id, "site-a"); err != nil {
		t.Fatal(err)
	}
	placed, err := ms.ServablePlacements(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0] != "site-b" {
		t.Fatalf("placements after undeploy = %v, want [site-b]", placed)
	}
	// The servable is still published and still runs — on site-b only.
	// (A site counts a task after answering it: let site-a's deploy and
	// undeploy both land in the count before taking the baseline.)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := tmA.Stats(); n >= 2 || time.Now().After(deadline) {
			break
		}
	}
	doneA, _ := tmA.Stats()
	for i := 0; i < 4; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, fmt.Sprintf("post-undeploy-%d", i), core.RunOptions{}); err != nil {
			t.Fatalf("run after undeploy: %v", err)
		}
	}
	if after, _ := tmA.Stats(); after != doneA {
		t.Fatal("undeployed site still served tasks")
	}
	// Undeploying a placement that does not exist is a not_found.
	if err := ms.Undeploy(context.Background(), core.Anonymous, id, "site-a"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double undeploy: want ErrNotFound, got %v", err)
	}
}

// The v2 wire surface: drain + deregister + per-placement undeploy
// routes, placements on GET, draining list on /tms, failover counters
// in /stats.
func TestV2TMLifecycleRoutes(t *testing.T) {
	tb, srv := v2TB(t)
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	// The testbed's single TM is "cooley-tm-1".
	if err := tb.MS.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", "cooley-tm-1"); err != nil {
		t.Fatal(err)
	}

	// GET servable exposes placements.
	resp, env := doV2(t, http.MethodGet, srv.URL+"/api/v2/servables/"+id, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	var view struct {
		Placements []string `json:"placements"`
	}
	if err := json.Unmarshal(env.Data, &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Placements) != 1 || view.Placements[0] != "cooley-tm-1" {
		t.Fatalf("placements on GET = %v", view.Placements)
	}

	// Undeploy the only placement via the wire route.
	resp, _ = doV2(t, http.MethodDelete, srv.URL+"/api/v2/servables/"+id+"/placements/cooley-tm-1", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("undeploy status %d", resp.StatusCode)
	}
	// Unknown placement now 404s.
	resp, env = doV2(t, http.MethodDelete, srv.URL+"/api/v2/servables/"+id+"/placements/cooley-tm-1", nil, nil)
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != "not_found" {
		t.Fatalf("double undeploy: status %d env %+v", resp.StatusCode, env.Error)
	}

	// Drain the TM over the wire; it is the only site, and the servable
	// is now unplaced, so nothing migrates.
	resp, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/tms/cooley-tm-1/drain", map[string]any{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d: %+v", resp.StatusCode, env.Error)
	}
	// The draining TM shows up in the fleet view.
	_, env = doV2(t, http.MethodGet, srv.URL+"/api/v2/tms", nil, nil)
	var tms struct {
		Draining []string `json:"draining"`
	}
	if err := json.Unmarshal(env.Data, &tms); err != nil {
		t.Fatal(err)
	}
	if len(tms.Draining) != 1 || tms.Draining[0] != "cooley-tm-1" {
		t.Fatalf("draining list = %v", tms.Draining)
	}

	// Stats expose the failover counter block, and the dispatch inbox:
	// idle now, so nothing pending, and every reply found its requester.
	_, env = doV2(t, http.MethodGet, srv.URL+"/api/v2/stats", nil, nil)
	var stats struct {
		Failovers *core.FailoverStats `json:"failovers"`
		Queue     map[string]any      `json:"queue"`
	}
	if err := json.Unmarshal(env.Data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Failovers == nil {
		t.Fatal("stats payload missing failovers block")
	}
	pending, hasPending := stats.Queue["pending_requests"]
	orphans, hasOrphans := stats.Queue["orphan_replies"]
	if !hasPending || !hasOrphans || pending != 0.0 || orphans != 0.0 {
		t.Fatalf("stats queue block = %v, want pending_requests 0 and orphan_replies 0", stats.Queue)
	}
	// The credit layer: the in-process TM's pullers wait in the broker,
	// the registration loop too, and nothing went through a session.
	credit, _ := stats.Queue["credit"].(map[string]any)
	if c, _ := stats.Queue["consumers"].(float64); c < 1 || credit == nil || stats.Queue["pushes"] != 0.0 || stats.Queue["push_failures"] != 0.0 {
		t.Fatalf("stats queue block = %v, want consumers, credit per TM, and no pushes", stats.Queue)
	}

	// Deregister over the wire; unknown TM afterwards is 503-coded
	// no_task_manager.
	resp, _ = doV2(t, http.MethodDelete, srv.URL+"/api/v2/tms/cooley-tm-1", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister status %d", resp.StatusCode)
	}
	resp, env = doV2(t, http.MethodDelete, srv.URL+"/api/v2/tms/cooley-tm-1", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != "no_task_manager" {
		t.Fatalf("double deregister: status %d env %+v", resp.StatusCode, env.Error)
	}
}

// Drain is sticky across heartbeats: only a committed record moves the
// mark, and a heartbeat never clears it.
func TestDrainSurvivesHeartbeats(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := liveSite(t, ms, "site-a", 20*time.Millisecond)
	defer tmA.Close()
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // several heartbeats
	draining := ms.DrainingTMs()
	if len(draining) != 1 || draining[0] != "site-a" {
		t.Fatalf("drain mark lost across heartbeats: %v", draining)
	}
}

// Rejoin reverses a drain: the service clears its mark, and the site
// takes deploys and traffic again.
func TestRejoinRestoresRouting(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id := deployNoopOn(t, ms, "site-a", "site-b")

	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	// Drained: deploys to the site are refused.
	if err := ms.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", "site-a"); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("deploy to draining TM: err = %v, want ErrConflict", err)
	}

	if err := ms.RejoinTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	if draining := ms.DrainingTMs(); len(draining) != 0 {
		t.Fatalf("service still marks draining after rejoin: %v", draining)
	}
	// Let the drain's best-effort undeploy teardown land before
	// re-deploying, or it would wipe the fresh placement.
	doneBefore := awaitStatsSettled(t, tmA)
	// Rejoined: the site accepts placements and serves again.
	if err := ms.DeployTo(context.Background(), core.Anonymous, id, 1, "parsl", "site-a"); err != nil {
		t.Fatalf("deploy after rejoin: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, fmt.Sprintf("post-rejoin-%d", i), core.RunOptions{}); err != nil {
			t.Fatalf("run %d after rejoin: %v", i, err)
		}
	}
	if after, _ := tmA.Stats(); after == doneBefore {
		t.Fatal("rejoined TM served nothing")
	}
	// Rejoin is idempotent.
	if err := ms.RejoinTM(context.Background(), "site-a"); err != nil {
		t.Fatalf("second rejoin: %v", err)
	}
}

// A heartbeat that still asserts draining (a TM of a release that
// echoed its drain) must not re-mark a rejoined TM: only the committed
// records move the mark. A deliberate re-drain right after a rejoin
// must still stick.
func TestRejoinIgnoresStaleDrainingHeartbeat(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	if err := ms.RejoinTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}

	// The stale heartbeat arrives after the rejoin. The registration
	// loop has applied it once the register queue holds nothing, ready
	// or claimed.
	ms.Broker().Push(taskmanager.RegisterQueue, []byte(`{"tm_id":"site-a","draining":true}`), "", "", "")
	deadline := time.Now().Add(5 * time.Second)
	for ms.Broker().Len(taskmanager.RegisterQueue)+ms.Broker().InFlight(taskmanager.RegisterQueue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the heartbeat was never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(ms.DrainingTMs()) != 0 {
		t.Fatalf("stale draining heartbeat re-marked a rejoined TM: %v", ms.DrainingTMs())
	}

	// A deliberate re-drain right after the rejoin must still stick.
	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	draining := ms.DrainingTMs()
	if len(draining) != 1 || draining[0] != "site-a" {
		t.Fatalf("re-drain after rejoin did not stick: %v", draining)
	}
}

// Rejoin requires a live, registered TM: unknown IDs error.
func TestRejoinUnknownTM(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	if err := ms.RejoinTM(context.Background(), "ghost"); !errors.Is(err, core.ErrNoTaskManager) {
		t.Fatalf("rejoin unknown TM: err = %v, want ErrNoTaskManager", err)
	}
}

// A TM whose liveness window has lapsed cannot rejoin: the error names
// the window, and the drain mark stays.
func TestRejoinDeadTMKeepsMark(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TMStaleAfter: 200 * time.Millisecond})
	defer ms.Close()
	stop := heartbeat(ms, "site-a")
	defer stop()
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.DrainTM(context.Background(), "site-a"); err != nil {
		t.Fatal(err)
	}
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for len(ms.LiveTaskManagers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("site-a never went stale")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := ms.RejoinTM(context.Background(), "site-a"); !errors.Is(err, core.ErrNoTaskManager) || !strings.Contains(err.Error(), "200ms") {
		t.Fatalf("rejoin of a dead TM: err = %v, want no_task_manager naming the 200ms window", err)
	}
	if draining := ms.DrainingTMs(); len(draining) != 1 || draining[0] != "site-a" {
		t.Fatalf("dead TM's drain mark = %v, want [site-a]", draining)
	}
}
