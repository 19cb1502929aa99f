package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// scriptedTM is a hand-driven Task Manager for deterministic pipeline
// tests: the test pulls tasks from its queue itself, so it can hold a
// step in flight, observe service-side accounting mid-task, and decide
// exactly when (and with what) to reply. Deploy/scale tasks are
// answered OK automatically so placement can be established.
type scriptedTM struct {
	t  *testing.T
	ms *core.Service
	id string

	mu    sync.Mutex
	tasks []pulledTask
	stop  chan struct{}
	// notify is signalled every time a serving task (run/run_batch/
	// pipeline) is pulled and parked.
	notify chan struct{}
}

type pulledTask struct {
	task  taskmanager.Task
	reply func(taskmanager.Reply)
}

func startScriptedTM(t *testing.T, ms *core.Service, id string) *scriptedTM {
	t.Helper()
	s := &scriptedTM{t: t, ms: ms, id: id, stop: make(chan struct{}), notify: make(chan struct{}, 64)}
	reg, err := json.Marshal(taskmanager.Registration{TMID: id, Executors: []string{"parsl"}})
	if err != nil {
		t.Fatal(err)
	}
	ms.Broker().Push(taskmanager.RegisterQueue, reg, "", "", "")
	t.Cleanup(func() { close(s.stop) })
	go s.loop()
	return s
}

func (s *scriptedTM) loop() {
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		msg, ok := s.ms.Broker().PullCtx(context.Background(), taskmanager.TaskQueue(s.id), 20*time.Millisecond)
		if !ok {
			continue
		}
		task, err := taskmanager.DecodeTask(msg.Body)
		if err != nil {
			continue
		}
		reply := func(rep taskmanager.Reply) {
			rep.TaskID = task.ID
			body, _ := taskmanager.EncodeReply(rep)
			s.ms.Broker().Reply(msg, body)
		}
		switch task.Kind {
		case "deploy", "scale", "undeploy", "ping":
			reply(taskmanager.Reply{OK: true})
			continue
		}
		s.mu.Lock()
		s.tasks = append(s.tasks, pulledTask{task: *task, reply: reply})
		s.mu.Unlock()
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// waitTask blocks until a serving task is parked and returns it.
func (s *scriptedTM) waitTask(timeout time.Duration) pulledTask {
	s.t.Helper()
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		if len(s.tasks) > 0 {
			pt := s.tasks[0]
			s.tasks = s.tasks[1:]
			s.mu.Unlock()
			return pt
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-deadline:
			s.t.Fatalf("no task arrived at %s within %v", s.id, timeout)
		}
	}
}

// pendingTasks reports how many serving tasks are currently parked.
func (s *scriptedTM) pendingTasks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

func newPipelineMS(t *testing.T) *core.Service {
	t.Helper()
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskTimeout: 5 * time.Second})
	t.Cleanup(ms.Close)
	return ms
}

// publishStep publishes a public noop-schema servable under the given
// name for the given owner.
func publishStep(t *testing.T, ms *core.Service, owner core.Caller, name string) string {
	t.Helper()
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.Name = name
	id, err := ms.Publish(context.Background(), owner, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func publishPipeline(t *testing.T, ms *core.Service, owner core.Caller, name string, steps []string) string {
	t.Helper()
	pipe := &servable.Package{Doc: pipelineDoc(name, steps)}
	id, err := ms.Publish(context.Background(), owner, pipe)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestPipelineAcrossTwoTMs is the acceptance pin for the distributed
// engine: a pipeline whose steps are deployed on two DIFFERENT Task
// Managers completes, each step executing at its own site. The pre-PR
// monolith shipped the whole chain to one TM and failed this exact
// scenario (the second step's executor was not deployed there).
func TestPipelineAcrossTwoTMs(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	tmB := newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	utilID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	featID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerFeaturizePackage())
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint placement, pinned: step 1 on site-a, step 2 on site-b.
	if err := ms.DeployTo(context.Background(), core.Anonymous, utilID, 1, "parsl", "site-a"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, featID, 1, "parsl", "site-b"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "split-pipe", []string{utilID, featID})

	res, err := ms.Run(context.Background(), core.Anonymous, pipeID, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatalf("pipeline across two TMs failed: %v", err)
	}
	feats, ok := outValue(t, res.Output).([]any)
	if !ok || len(feats) == 0 {
		t.Fatalf("pipeline should end in a feature vector, got %s", res.Output)
	}
	// Both sites executed exactly their own step (deploy task + run).
	doneA, _ := tmA.Stats()
	doneB, _ := tmB.Stats()
	if doneA != 2 || doneB != 2 {
		t.Fatalf("each site should have served deploy+step: a=%d b=%d", doneA, doneB)
	}
	// Per-step timing decomposition, MS-side request time included.
	if len(res.Steps) != 2 {
		t.Fatalf("want 2 step stats, got %+v", res.Steps)
	}
	for i, st := range res.Steps {
		if st.RequestMicros <= 0 {
			t.Fatalf("step %d should carry MS-side request time: %+v", i, st)
		}
		if st.Version != 1 {
			t.Fatalf("step %d should record its version: %+v", i, st)
		}
	}
	if res.Steps[0].Servable != utilID || res.Steps[1].Servable != featID {
		t.Fatalf("step order wrong: %+v", res.Steps)
	}
}

// TestPipelineMonolithFastPath pins the fast path: with every step
// co-deployed on ONE TM the whole chain ships as a single pipeline
// task (one queue round trip), and the reply still decomposes per
// step — with no MS-side request time, the monolith's signature.
func TestPipelineMonolithFastPath(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tm := newSite(t, ms, "site-a")
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	utilID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	featID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerFeaturizePackage())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{utilID, featID} {
		if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
			t.Fatal(err)
		}
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "mono-pipe", []string{utilID, featID})

	before, _ := tm.Stats()
	res, err := ms.Run(context.Background(), core.Anonymous, pipeID, "SiO2", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := tm.Stats()
	if after-before != 1 {
		t.Fatalf("monolith should be ONE task, TM executed %d", after-before)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("monolith reply should still decompose per step: %+v", res.Steps)
	}
	for i, st := range res.Steps {
		if st.RequestMicros != 0 {
			t.Fatalf("monolith step %d must not carry MS-side request time: %+v", i, st)
		}
		if st.InvocationMicros <= 0 {
			t.Fatalf("monolith step %d should carry TM-side invocation time: %+v", i, st)
		}
	}
}

// TestPipelineStepCacheAndInvalidation pins the per-step cache
// contract: a repeated pipeline serves every step from the result
// cache; republishing ONE step invalidates only that step's entries,
// so the unchanged prefix still short-circuits while the republished
// step recomputes.
func TestPipelineStepCacheAndInvalidation(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	newSite(t, ms, "site-a")
	newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	utilID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	featID, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerFeaturizePackage())
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint placement forces the distributed (per-step cached) path.
	if err := ms.DeployTo(context.Background(), core.Anonymous, utilID, 1, "parsl", "site-a"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, featID, 1, "parsl", "site-b"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "cache-pipe", []string{utilID, featID})

	base := ms.CacheStats()
	r1, err := ms.Run(context.Background(), core.Anonymous, pipeID, "Fe2O3", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first pipeline run cannot be a whole-pipeline hit")
	}
	r2, err := ms.Run(context.Background(), core.Anonymous, pipeID, "Fe2O3", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || !r2.Cached {
		t.Fatalf("repeated pipeline should hit on every step: %+v", r2.Steps)
	}
	for i, st := range r2.Steps {
		if !st.CacheHit {
			t.Fatalf("repeat step %d should be a cache hit: %+v", i, st)
		}
	}
	st := ms.CacheStats()
	if st.Hits-base.Hits < 2 {
		t.Fatalf("want >=2 step cache hits observable in counters, got %d", st.Hits-base.Hits)
	}

	// Republish the SECOND step: its entries invalidate (and its
	// version bumps), the first step's entry survives — the hot prefix
	// still short-circuits.
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerFeaturizePackage()); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, featID, 1, "parsl", "site-b"); err != nil {
		t.Fatal(err)
	}
	r3, err := ms.Run(context.Background(), core.Anonymous, pipeID, "Fe2O3", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Steps[0].CacheHit {
		t.Fatalf("prefix step should still hit after an unrelated republish: %+v", r3.Steps[0])
	}
	if r3.Steps[1].CacheHit {
		t.Fatalf("republished step must recompute: %+v", r3.Steps[1])
	}
	if r3.CacheHit {
		t.Fatal("partially recomputed pipeline must not report a whole-pipeline hit")
	}
}

// TestPipelineDemandAttribution pins demand accounting: a monolith
// pipeline's in-flight demand is charged to the PIPELINE's published
// ID, and a distributed step's demand to the STEP's ID — never to
// Steps[0] by fallback.
func TestPipelineDemandAttribution(t *testing.T) {
	ms := newPipelineMS(t)
	stm := startScriptedTM(t, ms, "stm-1")
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	aID := publishStep(t, ms, core.Anonymous, "step-a")
	bID := publishStep(t, ms, core.Anonymous, "step-b")
	for _, id := range []string{aID, bID} {
		if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
			t.Fatal(err)
		}
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "acct-pipe", []string{aID, bID})

	// Monolith path (both steps placed on stm-1): demand lands on the
	// pipeline ID while the task is in flight.
	errc := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, pipeID, "x", core.RunOptions{NoCache: true})
		errc <- err
	}()
	pt := stm.waitTask(5 * time.Second)
	if pt.task.Kind != "pipeline" {
		t.Fatalf("co-deployed steps should take the monolith path, got %q", pt.task.Kind)
	}
	if pt.task.Servable != pipeID {
		t.Fatalf("monolith task should carry the pipeline ID, got %q", pt.task.Servable)
	}
	if got := ms.ServableLoad(pipeID); got != 1 {
		t.Fatalf("monolith demand should charge the pipeline ID: load=%d", got)
	}
	if got := ms.ServableLoad(aID); got != 0 {
		t.Fatalf("monolith demand must NOT charge step 0: load=%d", got)
	}
	pt.reply(taskmanager.Reply{OK: true, Output: "done"})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	// Distributed path: register a second scripted site, split the
	// placement, and observe each step charged to its own ID.
	stm2 := startScriptedTM(t, ms, "stm-2")
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, bID, 1, "parsl", "stm-2"); err != nil {
		t.Fatal(err)
	}
	// Break co-location for step b: unpublish + republish so its only
	// placement is stm-2.
	if err := ms.Unpublish(core.Anonymous, bID); err != nil {
		t.Fatal(err)
	}
	bID = publishStep(t, ms, core.Anonymous, "step-b")
	if err := ms.DeployTo(context.Background(), core.Anonymous, bID, 1, "parsl", "stm-2"); err != nil {
		t.Fatal(err)
	}
	pipeID = publishPipeline(t, ms, core.Anonymous, "acct-pipe-2", []string{aID, bID})

	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, pipeID, "y", core.RunOptions{NoCache: true, Executor: "parsl"})
		errc <- err
	}()
	step1 := stm.waitTask(5 * time.Second)
	if step1.task.Kind != "run" || step1.task.Servable != aID {
		t.Fatalf("distributed step 1 should be a plain run of %s: %+v", aID, step1.task)
	}
	if step1.task.Executor != "parsl" {
		t.Fatalf("the run's executor override must reach each step: %+v", step1.task)
	}
	if got := ms.ServableLoad(aID); got != 1 {
		t.Fatalf("step 1 demand should charge %s: load=%d", aID, got)
	}
	if got := ms.ServableLoad(pipeID); got != 0 {
		t.Fatalf("distributed path must not charge the pipeline ID mid-step: load=%d", got)
	}
	step1.reply(taskmanager.Reply{OK: true, Output: "mid"})
	step2 := stm2.waitTask(5 * time.Second)
	if step2.task.Servable != bID {
		t.Fatalf("step 2 should route to stm-2 as %s: %+v", bID, step2.task)
	}
	if got := ms.ServableLoad(bID); got != 1 {
		t.Fatalf("step 2 demand should charge %s: load=%d", bID, got)
	}
	if got := ms.ServableLoad(aID); got != 0 {
		t.Fatalf("step 1 demand should have drained: load=%d", got)
	}
	step2.reply(taskmanager.Reply{OK: true, Output: "end"})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMidRunCancellation: canceling the caller while step 1 is
// in flight aborts the pipeline at the step boundary — step 2 is never
// dispatched.
func TestPipelineMidRunCancellation(t *testing.T) {
	ms := newPipelineMS(t)
	stm := startScriptedTM(t, ms, "stm-1")
	stm2 := startScriptedTM(t, ms, "stm-2")
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	aID := publishStep(t, ms, core.Anonymous, "step-a")
	bID := publishStep(t, ms, core.Anonymous, "step-b")
	if err := ms.DeployTo(context.Background(), core.Anonymous, aID, 1, "parsl", "stm-1"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, bID, 1, "parsl", "stm-2"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "cancel-pipe", []string{aID, bID})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ms.Run(ctx, core.Anonymous, pipeID, "x", core.RunOptions{NoCache: true})
		errc <- err
	}()
	step1 := stm.waitTask(5 * time.Second)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled pipeline did not return promptly")
	}
	// A late step-1 reply must not resurrect the pipeline: step 2 is
	// never dispatched.
	step1.reply(taskmanager.Reply{OK: true, Output: "late"})
	time.Sleep(100 * time.Millisecond)
	if n := stm2.pendingTasks(); n != 0 {
		t.Fatalf("step 2 dispatched after cancellation: %d tasks", n)
	}
}

// TestPipelineStepHiddenMidRun: a step whose visibility is revoked
// while an earlier step runs fails the pipeline with ErrNotFound at
// that step's boundary (existence stays hidden, §IV-D semantics).
func TestPipelineStepHiddenMidRun(t *testing.T) {
	ms := newPipelineMS(t)
	stm := startScriptedTM(t, ms, "stm-1")
	stm2 := startScriptedTM(t, ms, "stm-2")
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	owner := core.Caller{IdentityID: "urn:identity:orcid:owner", Principals: []string{"public", "urn:identity:orcid:owner"}}
	reader := core.Caller{IdentityID: "urn:identity:orcid:reader", Principals: []string{"public", "urn:identity:orcid:reader"}}

	aID := publishStep(t, ms, owner, "step-a")
	bID := publishStep(t, ms, owner, "step-b")
	if err := ms.DeployTo(context.Background(), owner, aID, 1, "parsl", "stm-1"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), owner, bID, 1, "parsl", "stm-2"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, owner, "acl-pipe", []string{aID, bID})

	errc := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), reader, pipeID, "x", core.RunOptions{NoCache: true})
		errc <- err
	}()
	step1 := stm.waitTask(5 * time.Second)
	// While step 1 is in flight, the owner makes step 2 owner-only.
	if err := ms.UpdateMetadata(owner, bID, func(p *schema.Publication) {
		p.VisibleTo = []string{owner.IdentityID}
	}); err != nil {
		t.Fatal(err)
	}
	step1.reply(taskmanager.Reply{OK: true, Output: "mid"})
	err := <-errc
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("hidden step should fail the pipeline with ErrNotFound, got %v", err)
	}
	if !strings.Contains(err.Error(), bID) {
		t.Fatalf("error should name the failing step: %v", err)
	}
	if n := stm2.pendingTasks(); n != 0 {
		t.Fatalf("hidden step must not dispatch: %d tasks", n)
	}
}

// TestPipelineStepUnpublishedMidRun: a step unpublished between steps
// fails the pipeline at its boundary instead of executing a stale
// document.
func TestPipelineStepUnpublishedMidRun(t *testing.T) {
	ms := newPipelineMS(t)
	stm := startScriptedTM(t, ms, "stm-1")
	stm2 := startScriptedTM(t, ms, "stm-2")
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	aID := publishStep(t, ms, core.Anonymous, "step-a")
	bID := publishStep(t, ms, core.Anonymous, "step-b")
	if err := ms.DeployTo(context.Background(), core.Anonymous, aID, 1, "parsl", "stm-1"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(context.Background(), core.Anonymous, bID, 1, "parsl", "stm-2"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "unpub-pipe", []string{aID, bID})

	errc := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, pipeID, "x", core.RunOptions{NoCache: true})
		errc <- err
	}()
	step1 := stm.waitTask(5 * time.Second)
	if err := ms.Unpublish(core.Anonymous, bID); err != nil {
		t.Fatal(err)
	}
	step1.reply(taskmanager.Reply{OK: true, Output: "mid"})
	err := <-errc
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unpublished step should fail the pipeline with ErrNotFound, got %v", err)
	}
	if n := stm2.pendingTasks(); n != 0 {
		t.Fatalf("unpublished step must not dispatch: %d tasks", n)
	}
}

// TestUnpublishUndeploysReplicas: unpublishing a deployed servable
// also tears its replicas down at the hosting site — otherwise they
// would run forever with no API left that can reach them.
func TestUnpublishUndeploysReplicas(t *testing.T) {
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ms := tb.MS
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 2, "parsl"); err != nil {
		t.Fatal(err)
	}
	if got := tb.ExecutorReplicas("parsl", id); got != 2 {
		t.Fatalf("deploy should start 2 replicas, got %d", got)
	}
	if err := ms.Unpublish(core.Anonymous, id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tb.ExecutorReplicas("parsl", id) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replicas still running after unpublish: %d", tb.ExecutorReplicas("parsl", id))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnpublishRemovesServable covers the new Unpublish surface
// directly: owner-only, removes discovery and serving state.
func TestUnpublishRemovesServable(t *testing.T) {
	ms := newPipelineMS(t)
	owner := core.Caller{IdentityID: "urn:identity:orcid:owner", Principals: []string{"public"}}
	other := core.Caller{IdentityID: "urn:identity:orcid:other", Principals: []string{"public"}}
	id := publishStep(t, ms, owner, "gone")
	if err := ms.Unpublish(other, id); !errors.Is(err, core.ErrForbidden) {
		t.Fatalf("non-owner unpublish should be forbidden, got %v", err)
	}
	if err := ms.Unpublish(owner, id); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get(owner, id); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("unpublished servable should be gone, got %v", err)
	}
	if err := ms.Unpublish(owner, id); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double unpublish should be not-found, got %v", err)
	}
}
