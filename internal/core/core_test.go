package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func newTB(t *testing.T, opts bench.Options) *bench.Testbed {
	t.Helper()
	if opts.Nodes == 0 {
		opts.Nodes = 4
	}
	tb, err := bench.NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb
}

func TestPublishRunEndToEnd(t *testing.T) {
	tb := newTB(t, bench.Options{})
	ms := tb.MS

	pkg := servable.NoopPackage()
	id, err := ms.Publish(context.Background(), core.Anonymous, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if id != "anonymous/noop" {
		t.Fatalf("unexpected id %s", id)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	res, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `"hello world"` {
		t.Fatalf("wrong output %s", res.Output)
	}
	if res.RequestMicros <= 0 || res.InvocationMicros <= 0 {
		t.Fatalf("timings missing: %+v", res)
	}
	// Request time (MS) should cover invocation time (TM).
	if res.RequestMicros < res.InvocationMicros {
		t.Fatalf("request %dus < invocation %dus", res.RequestMicros, res.InvocationMicros)
	}
}

func TestPublishValidation(t *testing.T) {
	tb := newTB(t, bench.Options{})
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.Title = ""
	if _, err := tb.MS.Publish(context.Background(), core.Anonymous, pkg); err == nil {
		t.Fatal("invalid doc should fail to publish")
	}
}

func TestVersioning(t *testing.T) {
	tb := newTB(t, bench.Options{})
	id1, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("republish should keep the ID")
	}
	versions, err := tb.MS.Versions(core.Anonymous, id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[1].Version != 2 {
		t.Fatalf("want 2 versions, got %d", len(versions))
	}
	doc, _ := tb.MS.Get(core.Anonymous, id1)
	if doc.Version != 2 {
		t.Fatalf("latest version should be 2, got %d", doc.Version)
	}
}

func TestSearchDiscovery(t *testing.T) {
	tb := newTB(t, bench.Options{})
	if _, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	res, _ := tb.MS.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: "pymatgen composition"}}})
	if res.Total != 1 || res.Hits[0].Doc.ID != "anonymous/matminer-util" {
		t.Fatalf("search wrong: %+v", res)
	}
	// Faceting across the repository.
	res, _ = tb.MS.Search(context.Background(), core.Anonymous, search.Query{FacetOn: []string{"type"}})
	if res.Facets["type"]["python_function"] != 2 {
		t.Fatalf("facets wrong: %v", res.Facets)
	}
}

func TestAccessControl(t *testing.T) {
	a := auth.NewService(time.Hour)
	a.RegisterProvider("orcid")
	a.RegisterClient("dlhub", "DLHub", "dlhub:all")
	a.RegisterUser("orcid", "owner", "pw", "Owner", "") //nolint:errcheck
	a.RegisterUser("orcid", "other", "pw", "Other", "") //nolint:errcheck
	member, _ := a.RegisterUser("orcid", "member", "pw", "Member", "")
	a.CreateGroup("candle-testers")
	a.AddToGroup("candle-testers", member.ID) //nolint:errcheck

	tb := newTB(t, bench.Options{Auth: a, RunScope: "dlhub:all"})
	ms := tb.MS

	callerFor := func(user string) core.Caller {
		tok, err := a.Authenticate("orcid", user, "pw", "dlhub", "dlhub:all")
		if err != nil {
			t.Fatal(err)
		}
		c, err := ms.ResolveCaller("Bearer " + tok.Value)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Publish a group-restricted model (the CANDLE pattern, §VI-A).
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.Name = "drug-response"
	pkg.Doc.Publication.VisibleTo = []string{auth.GroupURN("candle-testers")}
	ownerCaller := callerFor("owner")
	id, err := ms.Publish(context.Background(), ownerCaller, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), ownerCaller, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}

	// Group member can see and run it.
	if _, err := ms.Get(callerFor("member"), id); err != nil {
		t.Fatalf("group member should see the model: %v", err)
	}
	if _, err := ms.Run(context.Background(), callerFor("member"), id, "x", core.RunOptions{}); err != nil {
		t.Fatalf("group member should run the model: %v", err)
	}

	// Outsider cannot — and cannot even discover it.
	if _, err := ms.Get(callerFor("other"), id); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("outsider should get not-found, got %v", err)
	}
	if _, err := ms.Run(context.Background(), callerFor("other"), id, "x", core.RunOptions{}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("outsider should not run, got %v", err)
	}
	res, _ := ms.Search(context.Background(), callerFor("other"), search.Query{})
	for _, h := range res.Hits {
		if h.Doc.ID == id {
			t.Fatal("restricted model leaked into outsider search")
		}
	}

}

func TestUpdateMetadataFlipsVisibility(t *testing.T) {
	a := auth.NewService(time.Hour)
	a.RegisterProvider("orcid")
	a.RegisterClient("dlhub", "DLHub", "dlhub:all")
	a.RegisterUser("orcid", "owner", "pw", "Owner", "") //nolint:errcheck
	a.RegisterUser("orcid", "other", "pw", "Other", "") //nolint:errcheck

	tb := newTB(t, bench.Options{Auth: a, RunScope: "dlhub:all"})
	ms := tb.MS
	callerFor := func(user string) core.Caller {
		tok, _ := a.Authenticate("orcid", user, "pw", "dlhub", "dlhub:all")
		c, _ := ms.ResolveCaller("Bearer " + tok.Value)
		return c
	}
	ownerC := callerFor("owner")
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.VisibleTo = []string{ownerC.IdentityID}
	id, err := ms.Publish(context.Background(), ownerC, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get(callerFor("other"), id); !errors.Is(err, core.ErrNotFound) {
		t.Fatal("should be private initially")
	}
	// Release publicly.
	if err := ms.UpdateMetadata(ownerC, id, func(p *schema.Publication) {
		p.VisibleTo = []string{"public"}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get(callerFor("other"), id); err != nil {
		t.Fatalf("should be public after update: %v", err)
	}
	// Non-owner cannot update.
	if err := ms.UpdateMetadata(callerFor("other"), id, func(p *schema.Publication) {
		p.VisibleTo = nil
	}); !errors.Is(err, core.ErrForbidden) {
		t.Fatalf("non-owner update should be forbidden, got %v", err)
	}
}

func TestMemoizationEndToEnd(t *testing.T) {
	tb := newTB(t, bench.Options{Memoize: true})
	ms := tb.MS
	id, _ := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl") //nolint:errcheck

	r1, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("memoization wrong: first=%v second=%v", r1.Cached, r2.Cached)
	}
	// NoMemo opt-out, as the experiments configure.
	r3, err := ms.Run(context.Background(), core.Anonymous, id, "same", core.RunOptions{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Fatal("NoMemo run must bypass the cache")
	}
}

func TestBatchEndToEnd(t *testing.T) {
	tb := newTB(t, bench.Options{})
	ms := tb.MS
	id, _ := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	ms.Deploy(context.Background(), core.Anonymous, id, 2, "parsl") //nolint:errcheck

	inputs := []any{"NaCl", "SiO2", "Fe2O3"}
	res, err := ms.RunBatch(context.Background(), core.Anonymous, id, inputs, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	outs, ok := outValue(t, res.Outputs).([]any)
	if !ok || len(outs) != 3 {
		t.Fatalf("want 3 outputs, got %s", res.Outputs)
	}
	first := outs[0].(map[string]any)
	if len(first) != 2 {
		t.Fatalf("NaCl should parse to 2 elements: %v", first)
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	tb := newTB(t, bench.Options{})
	ms := tb.MS

	// Publish and deploy the three matminer stages.
	ids := map[string]string{}
	for name, pkg := range map[string]*servable.Package{
		"util":      servable.MatminerUtilPackage(),
		"featurize": servable.MatminerFeaturizePackage(),
	} {
		id, err := ms.Publish(context.Background(), core.Anonymous, pkg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	modelPkg, err := servable.MatminerModelPackage(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	modelID, err := ms.Publish(context.Background(), core.Anonymous, modelPkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, modelID, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	ids["model"] = modelID

	// Publish the pipeline (§VI-D formation-enthalpy workflow).
	pipe := &servable.Package{Doc: pipelineDoc("formation-enthalpy", []string{ids["util"], ids["featurize"], ids["model"]})}
	pipeID, err := ms.Publish(context.Background(), core.Anonymous, pipe)
	if err != nil {
		t.Fatal(err)
	}

	res, err := ms.Run(context.Background(), core.Anonymous, pipeID, "SiO2", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := outValue(t, res.Output).(float64); !ok {
		t.Fatalf("pipeline should end in a formation energy float, got %s", res.Output)
	}
}

func TestAsyncTask(t *testing.T) {
	tb := newTB(t, bench.Options{})
	ms := tb.MS
	id, _ := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl") //nolint:errcheck

	taskID, err := ms.RunAsync(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := ms.TaskStatus(taskID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "completed" {
			if string(st.Reply.Output) != `"hello world"` {
				t.Fatalf("async result wrong: %s", st.Reply.Output)
			}
			break
		}
		if st.Status == "failed" {
			t.Fatalf("async task failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("async task never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := ms.TaskStatus("ghost"); !errors.Is(err, core.ErrTaskNotFound) {
		t.Fatalf("want task not found, got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	tb := newTB(t, bench.Options{})
	ms := tb.MS
	if _, err := ms.Run(context.Background(), core.Anonymous, "ghost/model", 1, core.RunOptions{}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want not found, got %v", err)
	}
	// Published but not deployed: the TM reports an executor error.
	id, _ := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if _, err := ms.Run(context.Background(), core.Anonymous, id, 1, core.RunOptions{}); err == nil {
		t.Fatal("run before deploy should fail")
	}
}

func TestWANShapedRequestTimes(t *testing.T) {
	// With paper RTTs at scale 1, a round trip must include the
	// 20.7ms MS<->TM WAN RTT. Run at scale 10 to keep the test fast:
	// expected floor becomes ~2.07ms.
	simconst.Scale = 10
	defer func() { simconst.Scale = 1000 }()
	tb := newTB(t, bench.Options{WAN: true})
	ms := tb.MS
	id, _ := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	res, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantFloor := int64(2070) // 20.7ms / 10 in µs
	if res.RequestMicros < wantFloor {
		t.Fatalf("request time %dus below WAN floor %dus", res.RequestMicros, wantFloor)
	}
	// Invocation (at TM) must be well under request (at MS).
	if res.InvocationMicros >= res.RequestMicros {
		t.Fatalf("invocation %dus should be < request %dus", res.InvocationMicros, res.RequestMicros)
	}
}

// pipelineDoc builds a pipeline publication document.
func pipelineDoc(name string, steps []string) *schema.Document {
	return &schema.Document{
		Publication: schema.Publication{
			Name:        name,
			Title:       "Pipeline " + name,
			Authors:     []string{"DLHub Team"},
			VisibleTo:   []string{"public"},
			Description: fmt.Sprintf("pipeline over %v", steps),
		},
		Servable: schema.Servable{
			Type:  schema.TypePipeline,
			Steps: steps,
		},
	}
}

// TestRedeployServesTheRepublishedVersion: publish v1, deploy, run;
// publish v2 with a different entry, deploy, run. The second deploy must
// replace v1's pods, and a result cached between the publish and the
// deploy — v1's answer under v2's key — must not outlive it.
func TestRedeployServesTheRepublishedVersion(t *testing.T) {
	tb := newTB(t, bench.Options{ServiceCache: true})
	ms, ctx := tb.MS, context.Background()
	run := func(opts core.RunOptions) any {
		t.Helper()
		res, err := ms.Run(ctx, core.Anonymous, "anonymous/noop", "abc", opts)
		if err != nil {
			t.Fatal(err)
		}
		return outValue(t, res.Output)
	}

	id, err := ms.Publish(ctx, core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(ctx, core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if out := run(core.RunOptions{}); out != "hello world" {
		t.Fatalf("v1 answered %v", out)
	}

	v2 := servable.NoopPackage()
	v2.Doc.Servable.Entry = "test:length"
	if _, err := ms.Publish(ctx, core.Anonymous, v2); err != nil {
		t.Fatal(err)
	}
	// Published, not yet deployed: the site still serves v1, and this
	// answer is cached under v2's key.
	if out := run(core.RunOptions{}); out != "hello world" {
		t.Fatalf("before the redeploy the old pods answer, got %v", out)
	}
	if err := ms.Deploy(ctx, core.Anonymous, id, 2, "parsl"); err != nil {
		t.Fatal(err)
	}
	if got := tb.ExecutorReplicas("parsl", id); got != 2 {
		t.Fatalf("redeploy at 2 replicas left %d", got)
	}
	if out := run(core.RunOptions{NoCache: true}); out != float64(3) {
		t.Fatalf("v2 deployed; past the cache the site answered %v", out)
	}
	if out := run(core.RunOptions{}); out != float64(3) {
		t.Fatalf("v2 deployed; through the cache the answer was %v", out)
	}
}
