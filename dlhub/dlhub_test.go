package dlhub_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/ml/nn"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

// startService assembles a testbed and exposes it over HTTP.
func startService(t *testing.T) *dlhub.Client {
	t.Helper()
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	srv := httptest.NewServer(tb.MS.Handler())
	t.Cleanup(srv.Close)
	c := dlhub.NewClient(srv.URL, "")
	c.HTTPClient = srv.Client()
	return c
}

func TestToolboxBuildsValidPackages(t *testing.T) {
	servable.RegisterBuiltins()
	pkg, err := dlhub.DescribePythonStaticMethod("hello", "Hello function", "noop:hello").
		WithAuthors("Chard, Ryan").
		WithDescription("returns hello world").
		WithDomains("testing").
		VisibleTo("public").
		WithIdentifier("10.5555/dlhub-hello").
		WithCitation("@article{dlhub2019}").
		WithLicense("Apache-2.0").
		WithYear(2019).
		WithInput("string", nil, "ignored").
		WithOutput("string", "greeting").
		WithHyperparameter("epochs", 10).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Doc.Publication.Identifier != "10.5555/dlhub-hello" {
		t.Fatal("builder lost identifier")
	}

	// Invalid: no authors.
	_, err = dlhub.DescribePythonStaticMethod("x", "X", "noop:hello").Build()
	if err == nil {
		t.Fatal("missing authors should fail validation")
	}
}

func TestToolboxKerasBuilder(t *testing.T) {
	model, err := nn.Encode(nn.NewCIFAR10(1))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := dlhub.DescribeKerasModel("cifar10", "CIFAR-10", model).
		WithAuthors("Krizhevsky, Alex").
		WithInput("ndarray", []int{32, 32, 3}, "image").
		WithOutput("list", "top-5").
		WithDependency("keras", "2.2.4").
		VisibleTo("public").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Components["model"]) == 0 {
		t.Fatal("model bytes missing")
	}
}

func TestLocalRunner(t *testing.T) {
	servable.RegisterBuiltins()
	pkg, err := dlhub.DescribePythonStaticMethod("parse", "Parser", "pymatgen:parse_composition").
		WithAuthors("Ward, Logan").
		WithInput("string", nil, "formula").
		WithOutput("dict", "fractions").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := dlhub.NewLocalRunner(pkg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := r.Run("H2O")
	if err != nil {
		t.Fatal(err)
	}
	if m := out.(map[string]any); len(m) != 2 {
		t.Fatalf("H2O should parse to 2 elements: %v", m)
	}
}

func TestClientEndToEnd(t *testing.T) {
	c := startService(t)

	// Publish via toolbox + client.
	pkg, err := dlhub.DescribePythonStaticMethod("noop", "Noop", "noop:hello").
		WithAuthors("DLHub Team").
		WithDescription("baseline hello world task").
		VisibleTo("public").
		WithInput("string", nil, "").
		WithOutput("string", "").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	servable.RegisterBuiltins()
	id, err := c.PublishPackage(t.Context(), pkg)
	if err != nil {
		t.Fatal(err)
	}

	// Discover.
	ids, err := c.List(t.Context())
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("list wrong: %v %v", ids, err)
	}
	res, err := c.Search(t.Context(), "baseline hello", dlhub.SearchOptions{})
	if err != nil || res.Total != 1 {
		t.Fatalf("search wrong: %+v %v", res, err)
	}
	doc, err := c.Get(t.Context(), id)
	if err != nil || doc.Publication.Name != "noop" {
		t.Fatalf("get wrong: %+v %v", doc, err)
	}
	df, err := c.Dockerfile(t.Context(), id)
	if err != nil || !strings.Contains(df, "FROM") {
		t.Fatalf("dockerfile wrong: %q %v", df, err)
	}

	// Deploy + run.
	if err := c.Deploy(t.Context(), id, 2, ""); err != nil {
		t.Fatal(err)
	}
	run, err := c.Run(t.Context(), id, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if run.Output != "hello world" || run.RequestMicros <= 0 {
		t.Fatalf("run wrong: %+v", run)
	}

	// Scale.
	if err := c.Scale(t.Context(), id, 4, ""); err != nil {
		t.Fatal(err)
	}

	// Batch.
	batch, err := c.RunBatch(t.Context(), id, []any{"a", "b", "c"})
	if err != nil || len(batch.Outputs) != 3 {
		t.Fatalf("batch wrong: %+v %v", batch, err)
	}

	// Async.
	taskID, err := c.RunAsync(t.Context(), id, "x")
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	st, err := c.WaitTask(waitCtx, taskID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "completed" || st.Reply.Output != "hello world" {
		t.Fatalf("async wrong: %+v", st)
	}

	// Metadata update.
	if err := c.UpdateDescription(t.Context(), id, "updated description"); err != nil {
		t.Fatal(err)
	}
	doc, _ = c.Get(t.Context(), id)
	if doc.Publication.Description != "updated description" {
		t.Fatal("description not updated")
	}

	// TMs visible.
	fleet, err := c.TaskManagerInfo(t.Context())
	if err != nil || len(fleet.TaskManagers) != 1 {
		t.Fatalf("tms wrong: %+v %v", fleet, err)
	}
}

func TestClientErrors(t *testing.T) {
	c := startService(t)
	if _, err := c.Get(t.Context(), "ghost/model"); err == nil {
		t.Fatal("missing servable should error")
	}
	var notFound error = errors.New("")
	_ = notFound
	if _, err := c.Run(t.Context(), "ghost/model", 1); err == nil || !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("run on missing servable: %v", err)
	}
	if _, err := c.Status(t.Context(), "nope"); err == nil {
		t.Fatal("missing task should error")
	}
	// An empty batch is refused client-side: sent, omitempty would turn
	// it into a single run on null (and here into a 404, not this error).
	if _, err := c.RunBatch(t.Context(), "ghost/model", []any{}); err == nil || !strings.Contains(err.Error(), "inputs is empty") {
		t.Fatalf("empty batch: %v", err)
	}
}

// --- v2 client features ------------------------------------------------------

func TestClientTypedErrors(t *testing.T) {
	c := startService(t)
	_, err := c.Get(t.Context(), "ghost/model")
	var apiErr *dlhub.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Status != 404 || apiErr.Code != "not_found" || apiErr.RequestID == "" {
		t.Fatalf("typed error wrong: %+v", apiErr)
	}
}

// flakyHandler fails the first n requests per (method,path) with the
// given status, then delegates.
type flakyHandler struct {
	mu       sync.Mutex
	failures map[string]int
	status   int
	next     http.Handler
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	f.mu.Lock()
	n := f.failures[key]
	if n > 0 {
		f.failures[key] = n - 1
		f.mu.Unlock()
		w.WriteHeader(f.status)
		w.Write([]byte(`{"error":{"code":"upstream_error","message":"injected"},"request_id":"flaky"}`)) //nolint:errcheck
		return
	}
	f.mu.Unlock()
	f.next.ServeHTTP(w, r)
}

// startFlakyService wraps the testbed handler with fault injection.
func startFlakyService(t *testing.T, status int) (*dlhub.Client, *flakyHandler) {
	t.Helper()
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	fh := &flakyHandler{failures: map[string]int{}, status: status, next: tb.MS.Handler()}
	srv := httptest.NewServer(fh)
	t.Cleanup(srv.Close)
	c := dlhub.NewClient(srv.URL, "")
	c.HTTPClient = srv.Client()
	c.Retry = dlhub.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	return c, fh
}

func TestClientRetriesIdempotentGET(t *testing.T) {
	c, fh := startFlakyService(t, http.StatusServiceUnavailable)
	fh.set("GET /api/v2/servables", 2)
	ids, err := c.List(t.Context())
	if err != nil {
		t.Fatalf("GET should survive 2 injected 503s via retry: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("unexpected servables: %v", ids)
	}
	// With more failures than attempts, the typed error surfaces.
	fh.set("GET /api/v2/servables", 5)
	_, err = c.List(t.Context())
	var apiErr *dlhub.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retries should return the 503: %v", err)
	}
}

func TestClientRetriesOnlyWithIdempotencyKey(t *testing.T) {
	c, fh := startFlakyService(t, http.StatusBadGateway)
	servable.RegisterBuiltins()
	pkg, err := dlhub.DescribePythonStaticMethod("noop", "Noop", "noop:hello").
		WithAuthors("DLHub Team").VisibleTo("public").
		WithInput("string", nil, "").WithOutput("string", "").Build()
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.PublishPackage(t.Context(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(t.Context(), id, 1, ""); err != nil {
		t.Fatal(err)
	}
	runPath := "POST /api/v2/servables/" + id + "/run"

	// A plain POST run must NOT be retried: one failure, one error.
	fh.set(runPath, 1)
	if _, err := c.Run(context.Background(), id, "x"); err == nil {
		t.Fatal("plain run must not retry through a 502")
	}
	fh.set(runPath, 0)

	// The same failure under an idempotency key is retried through.
	fh.set(runPath, 2)
	res, err := c.RunIdempotent(context.Background(), id, "x", "retry-key-1")
	if err != nil {
		t.Fatalf("idempotency-keyed run should retry: %v", err)
	}
	if res.Output != "hello world" {
		t.Fatalf("wrong output %v", res.Output)
	}
}

func (f *flakyHandler) set(route string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failures[route] = n
}

func TestClientStreamTask(t *testing.T) {
	c := startService(t)
	servable.RegisterBuiltins()
	pkg, err := dlhub.DescribePythonStaticMethod("noop", "Noop", "noop:hello").
		WithAuthors("DLHub Team").VisibleTo("public").
		WithInput("string", nil, "").WithOutput("string", "").Build()
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.PublishPackage(t.Context(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(t.Context(), id, 1, ""); err != nil {
		t.Fatal(err)
	}
	taskID, err := c.RunAsync(context.Background(), id, "x")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	st, err := c.StreamTask(context.Background(), taskID, func(ev dlhub.TaskEvent) {
		types = append(types, ev.Type)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "completed" || st.Reply == nil || st.Reply.Output != "hello world" {
		t.Fatalf("streamed final state wrong: %+v", st)
	}
	if len(types) == 0 || types[0] != "status" || types[len(types)-1] != "done" {
		t.Fatalf("event sequence wrong: %v", types)
	}
	// WaitTask uses the same stream.
	st2, err := c.WaitTask(context.Background(), taskID)
	if err != nil || st2.Status != "completed" {
		t.Fatalf("WaitTask: %+v %v", st2, err)
	}
	// Unknown task: typed 404, no hang.
	var apiErr *dlhub.APIError
	if _, err := c.StreamTask(context.Background(), "ghost", nil); !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("ghost stream: %v", err)
	}
}

func TestClientRunCancellation(t *testing.T) {
	c := startService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, "ghost/model", "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: %v", err)
	}
}
