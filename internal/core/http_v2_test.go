package core_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/store"
)

// v2TB builds a testbed and serves its handler.
func v2TB(t *testing.T) (*bench.Testbed, *httptest.Server) {
	t.Helper()
	tb := newTB(t, bench.Options{})
	srv := httptest.NewServer(tb.MS.Handler())
	t.Cleanup(srv.Close)
	return tb, srv
}

type envelope struct {
	Data  json.RawMessage `json:"data"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Detail  string `json:"detail"`
	} `json:"error"`
	RequestID string `json:"request_id"`
}

func doV2(t *testing.T, method, url string, body any, headers map[string]string) (*http.Response, envelope) {
	t.Helper()
	var reader io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: not an envelope: %v", method, url, err)
	}
	return resp, env
}

func TestV2EnvelopeAndRequestID(t *testing.T) {
	_, srv := v2TB(t)
	resp, env := doV2(t, http.MethodGet, srv.URL+"/api/v2/healthz", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if env.RequestID == "" || env.Error != nil {
		t.Fatalf("bad envelope: %+v", env)
	}
	if hdr := resp.Header.Get(core.RequestIDHeader); hdr != env.RequestID {
		t.Fatalf("header rid %q != envelope rid %q", hdr, env.RequestID)
	}
	// A client-supplied request ID is propagated.
	resp, env = doV2(t, http.MethodGet, srv.URL+"/api/v2/healthz", nil,
		map[string]string{core.RequestIDHeader: "client-rid-1"})
	if env.RequestID != "client-rid-1" || resp.Header.Get(core.RequestIDHeader) != "client-rid-1" {
		t.Fatalf("client request ID not propagated: %+v", env)
	}
}

func TestV2TypedErrors(t *testing.T) {
	_, srv := v2TB(t)
	resp, env := doV2(t, http.MethodGet, srv.URL+"/api/v2/servables/ghost/model", nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if env.Error == nil || env.Error.Code != string(core.CodeNotFound) {
		t.Fatalf("want not_found code, got %+v", env.Error)
	}
	// Bad cursor → bad_request.
	resp, env = doV2(t, http.MethodGet, srv.URL+"/api/v2/servables?cursor=%21%21", nil, nil)
	if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != string(core.CodeBadRequest) {
		t.Fatalf("bad cursor: status %d env %+v", resp.StatusCode, env.Error)
	}
}

func TestV2Readyz(t *testing.T) {
	// A service with no TM is not ready.
	ms := core.New(core.Config{})
	defer ms.Close()
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()
	resp, env := doV2(t, http.MethodGet, srv.URL+"/api/v2/readyz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != string(core.CodeNoTaskManager) {
		t.Fatalf("no-TM readyz: status %d env %+v", resp.StatusCode, env.Error)
	}

	// The testbed (one live TM) is ready.
	_, tbSrv := v2TB(t)
	resp, env = doV2(t, http.MethodGet, tbSrv.URL+"/api/v2/readyz", nil, nil)
	if resp.StatusCode != http.StatusOK || env.Error != nil {
		t.Fatalf("readyz with TM: status %d env %+v", resp.StatusCode, env.Error)
	}

	// A live TM and a WAL whose first fsync failed is not ready, and the
	// answer names the error. wal.log is the null device, which takes
	// writes and refuses fsync (EINVAL on Linux).
	dir := t.TempDir()
	if err := os.Symlink(os.DevNull, filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	w, err := store.Open(store.Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	ms = core.New(core.Config{Registry: container.NewRegistry(), Store: w})
	t.Cleanup(func() { ms.Close(); w.Close() })
	if _, err := ms.Recover(); err != nil {
		t.Fatal(err)
	}
	newSite(t, ms, "tm-1")
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	walSrv := httptest.NewServer(ms.Handler())
	defer walSrv.Close()
	if resp, env = doV2(t, http.MethodGet, walSrv.URL+"/api/v2/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before the failed fsync: status %d env %+v", resp.StatusCode, env.Error)
	}
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("publish with a failing fsync: got %v, want unavailable", err)
	}
	resp, env = doV2(t, http.MethodGet, walSrv.URL+"/api/v2/readyz", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != string(core.CodeUnavailable) || !strings.Contains(env.Error.Detail, "append") {
		t.Fatalf("readyz with a latched write error: status %d env %+v", resp.StatusCode, env.Error)
	}
}

func TestV2PaginationWalk(t *testing.T) {
	tb, srv := v2TB(t)
	// Publish 5 distinct public servables.
	for i := 0; i < 5; i++ {
		pkg := servable.NoopPackage()
		pkg.Doc.Publication.Name = fmt.Sprintf("pager-%d", i)
		pkg.Doc.Publication.VisibleTo = []string{"public"}
		if _, err := tb.MS.Publish(t.Context(), core.Anonymous, pkg); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	cursor := ""
	pages := 0
	for {
		url := srv.URL + "/api/v2/servables?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, env := doV2(t, http.MethodGet, url, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page status %d", resp.StatusCode)
		}
		var page struct {
			Items      []string `json:"items"`
			Total      int      `json:"total"`
			NextCursor string   `json:"next_cursor"`
		}
		if err := json.Unmarshal(env.Data, &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 5 {
			t.Fatalf("total %d, want 5", page.Total)
		}
		if len(page.Items) > 2 {
			t.Fatalf("page overflow: %d items", len(page.Items))
		}
		all = append(all, page.Items...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("cursor walk did not terminate")
		}
	}
	if len(all) != 5 || pages != 3 {
		t.Fatalf("walked %d items over %d pages, want 5 over 3", len(all), pages)
	}
	seen := map[string]bool{}
	for _, id := range all {
		if seen[id] {
			t.Fatalf("duplicate %s across pages", id)
		}
		seen[id] = true
	}
}

func TestV2SearchCursor(t *testing.T) {
	tb, srv := v2TB(t)
	for i := 0; i < 4; i++ {
		pkg := servable.NoopPackage()
		pkg.Doc.Publication.Name = fmt.Sprintf("searchable-%d", i)
		pkg.Doc.Publication.VisibleTo = []string{"public"}
		if _, err := tb.MS.Publish(t.Context(), core.Anonymous, pkg); err != nil {
			t.Fatal(err)
		}
	}
	body := map[string]any{"q": "noop", "limit": 3}
	resp, env := doV2(t, http.MethodPost, srv.URL+"/api/v2/search", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	var page struct {
		Items      []struct{ ID string } `json:"items"`
		Total      int                   `json:"total"`
		NextCursor string                `json:"next_cursor"`
	}
	if err := json.Unmarshal(env.Data, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 4 || len(page.Items) != 3 || page.NextCursor == "" {
		t.Fatalf("first page wrong: total=%d items=%d cursor=%q", page.Total, len(page.Items), page.NextCursor)
	}
	body["cursor"] = page.NextCursor
	_, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/search", body, nil)
	page.NextCursor = "" // absent on the last page: reset before reuse
	if err := json.Unmarshal(env.Data, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Items) != 1 || page.NextCursor != "" {
		t.Fatalf("second page wrong: items=%d cursor=%q", len(page.Items), page.NextCursor)
	}
	// A term of several tokens: the model type the type facet offers.
	_, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/search", map[string]any{"terms": map[string]string{"type": "python_function"}}, nil)
	if err := json.Unmarshal(env.Data, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != 4 {
		t.Fatalf(`terms {"type":"python_function"} found %d of 4`, page.Total)
	}
}

func TestV2RunAndIdempotency(t *testing.T) {
	tb, srv := v2TB(t)
	id, err := tb.MS.Publish(t.Context(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(t.Context(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	runURL := srv.URL + "/api/v2/servables/" + id + "/run"

	// Plain run: enveloped RunResult.
	resp, env := doV2(t, http.MethodPost, runURL, map[string]any{"input": "x", "no_memo": true}, nil)
	if resp.StatusCode != http.StatusOK || env.Error != nil {
		t.Fatalf("run: status %d err %+v", resp.StatusCode, env.Error)
	}
	var res struct {
		Output any `json:"output"`
	}
	if err := json.Unmarshal(env.Data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Output != "hello world" {
		t.Fatalf("output %v", res.Output)
	}
	if hdr := resp.Header.Get(core.CacheHeader); hdr != "bypass" {
		t.Fatalf("no_memo run should bypass cache, header=%q", hdr)
	}

	// Idempotency: same key replays the stored response without
	// re-running; different key executes fresh.
	hdrs := map[string]string{core.IdempotencyKeyHeader: "idem-1"}
	completedBefore, _ := tb.TM.Stats()
	resp1, env1 := doV2(t, http.MethodPost, runURL, map[string]any{"input": "idem", "no_memo": true, "no_cache": true}, hdrs)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("idem run status %d", resp1.StatusCode)
	}
	resp2, env2 := doV2(t, http.MethodPost, runURL, map[string]any{"input": "idem", "no_memo": true, "no_cache": true}, hdrs)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("idem replay status %d", resp2.StatusCode)
	}
	if resp2.Header.Get(core.IdempotencyReplayedHeader) != "true" {
		t.Fatal("replay not marked with Idempotency-Replayed")
	}
	if !bytes.Equal(env1.Data, env2.Data) {
		t.Fatalf("replayed body differs:\n%s\n%s", env1.Data, env2.Data)
	}
	completedAfter, _ := tb.TM.Stats()
	if completedAfter != completedBefore+1 {
		t.Fatalf("idempotent duplicate re-executed: %d -> %d completed tasks", completedBefore, completedAfter)
	}
}

func TestV2PublishIdempotency(t *testing.T) {
	_, srv := v2TB(t)
	pkg := servable.NoopPackage()
	doc, err := json.Marshal(pkg.Doc)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"document": json.RawMessage(doc)}
	hdrs := map[string]string{core.IdempotencyKeyHeader: "pub-1"}
	resp1, env1 := doV2(t, http.MethodPost, srv.URL+"/api/v2/servables", body, hdrs)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("publish status %d: %s", resp1.StatusCode, env1.Data)
	}
	// Re-publishing with the same key must NOT mint version 2.
	_, env2 := doV2(t, http.MethodPost, srv.URL+"/api/v2/servables", body, hdrs)
	if !bytes.Equal(env1.Data, env2.Data) {
		t.Fatalf("idempotent publish diverged: %s vs %s", env1.Data, env2.Data)
	}
	var pub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(env2.Data, &pub); err != nil {
		t.Fatal(err)
	}
	resp, getEnv := doV2(t, http.MethodGet, srv.URL+"/api/v2/servables/"+pub.ID, nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("published servable not fetchable")
	}
	var gotDoc struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(getEnv.Data, &gotDoc); err != nil {
		t.Fatal(err)
	}
	if gotDoc.Version != 1 {
		t.Fatalf("idempotent publish minted version %d", gotDoc.Version)
	}
}

func TestV2TaskEventsStream(t *testing.T) {
	tb, srv := v2TB(t)
	id, err := tb.MS.Publish(t.Context(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(t.Context(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	taskID, err := tb.MS.RunAsync(t.Context(), core.Anonymous, id, "async-in", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/v2/tasks/" + taskID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events []string
	var final struct {
		Status string `json:"status"`
		Reply  *struct {
			Output any `json:"output"`
		} `json:"reply"`
	}
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	stop := make(chan struct{})
	defer close(stop) // before resp.Body.Close, which ends a Scan still reading
	go func() {
		defer close(lines)
		for scanner.Scan() {
			select {
			case lines <- scanner.Text():
			case <-stop:
				return
			}
		}
	}()
scan:
	for {
		select {
		case <-deadline:
			t.Fatal("stream did not complete")
		case line, ok := <-lines:
			if !ok {
				break scan
			}
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
				events = append(events, event)
			case strings.HasPrefix(line, "data: ") && event == "done":
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
					t.Fatal(err)
				}
				break scan
			}
		}
	}
	if len(events) == 0 || events[0] != "status" {
		t.Fatalf("stream must open with a status event, got %v", events)
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("stream must end with done, got %v", events)
	}
	if final.Status != "completed" || final.Reply == nil || final.Reply.Output != "hello world" {
		t.Fatalf("final event wrong: %+v", final)
	}
	// Unknown task: typed 404.
	respErr, errEnv := doV2(t, http.MethodGet, srv.URL+"/api/v2/tasks/ghost/events", nil, nil)
	if respErr.StatusCode != http.StatusNotFound || errEnv.Error == nil || errEnv.Error.Code != string(core.CodeTaskNotFound) {
		t.Fatalf("ghost task events: %d %+v", respErr.StatusCode, errEnv.Error)
	}
}

// v2Flow drives publish → deploy → run → search over HTTP and returns
// the published servable's ID.
func v2Flow(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	doc, err := json.Marshal(servable.NoopPackage().Doc)
	if err != nil {
		t.Fatal(err)
	}
	resp, env := doV2(t, http.MethodPost, srv.URL+"/api/v2/servables", map[string]any{"document": json.RawMessage(doc)}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish: status %d err %+v", resp.StatusCode, env.Error)
	}
	var pub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(env.Data, &pub); err != nil || pub.ID != "anonymous/noop" {
		t.Fatalf("publish: id %q err %v", pub.ID, err)
	}
	base := srv.URL + "/api/v2/servables/" + pub.ID
	if resp, env = doV2(t, http.MethodPost, base+"/deploy", map[string]any{"replicas": 1}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: status %d err %+v", resp.StatusCode, env.Error)
	}
	resp, env = doV2(t, http.MethodPost, base+"/run", map[string]any{"input": "hi"}, nil)
	var run struct {
		Output    any   `json:"output"`
		RequestUS int64 `json:"request_us"`
	}
	if err := json.Unmarshal(env.Data, &run); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d err %+v / %v", resp.StatusCode, env.Error, err)
	}
	if run.Output != "hello world" || run.RequestUS <= 0 {
		t.Fatalf("run wrong: %+v", run)
	}
	resp, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/search", map[string]any{"q": "hello baseline"}, nil)
	var found core.SearchPageV2
	if err := json.Unmarshal(env.Data, &found); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d err %+v / %v", resp.StatusCode, env.Error, err)
	}
	if found.Total != 1 || found.Items[0].ID != pub.ID {
		t.Fatalf("search wrong: %+v", found)
	}
	return pub.ID
}

// TestV2RESTEndToEnd drives the whole serving flow over HTTP alone,
// including the routes no other test in this file reaches: deploy, the
// Dockerfile view and the task status poll.
func TestV2RESTEndToEnd(t *testing.T) {
	_, srv := v2TB(t)
	id := v2Flow(t, srv)
	base := srv.URL + "/api/v2/servables/" + id

	if resp, env := doV2(t, http.MethodGet, base, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d err %+v", resp.StatusCode, env.Error)
	}
	_, env := doV2(t, http.MethodGet, base+"/dockerfile", nil, nil)
	var df map[string]string
	if err := json.Unmarshal(env.Data, &df); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(df["dockerfile"], "dlhub_sdk") {
		t.Fatalf("dockerfile should list dlhub deps: %s", df["dockerfile"])
	}

	resp, env := doV2(t, http.MethodPost, base+"/run", map[string]any{"input": "x", "async": true}, nil)
	var async map[string]string
	if err := json.Unmarshal(env.Data, &async); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run: status %d err %+v / %v", resp.StatusCode, env.Error, err)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, env := doV2(t, http.MethodGet, srv.URL+"/api/v2/tasks/"+async["task_id"], nil, nil)
		var st core.AsyncTask
		return json.Unmarshal(env.Data, &st) == nil && st.Status == "completed"
	})

	resp, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/servables/ghost/model/run", map[string]any{"input": 1}, nil)
	if resp.StatusCode != http.StatusNotFound || env.Error == nil || env.Error.Code != string(core.CodeNotFound) {
		t.Fatalf("ghost run: status %d err %+v", resp.StatusCode, env.Error)
	}
}

// TestHandlerIsV2Only: the unversioned routes removed in PR 15 are plain
// unmatched paths now — 404, no deprecation signalling, counted under
// the method's unmatched bucket — and a full serving flow touches
// nothing outside /api/v2.
func TestHandlerIsV2Only(t *testing.T) {
	tb, srv := v2TB(t)
	removed := []struct{ method, path string }{
		{http.MethodPost, "/api/publish"},
		{http.MethodGet, "/api/servables"},
		{http.MethodGet, "/api/servables/anonymous/noop"},
		{http.MethodGet, "/api/servables/anonymous/noop/dockerfile"},
		{http.MethodPost, "/api/servables/anonymous/noop/update"},
		{http.MethodPost, "/api/search"},
		{http.MethodPost, "/api/run/anonymous/noop"},
		{http.MethodGet, "/api/status/some-task"},
		{http.MethodPost, "/api/deploy/anonymous/noop"},
		{http.MethodPost, "/api/scale/anonymous/noop"},
		{http.MethodGet, "/api/tms"},
		{http.MethodGet, "/api/cache/stats"},
		{http.MethodPost, "/api/cache/flush"},
	}
	want := map[string]uint64{}
	for _, rt := range removed {
		req, err := http.NewRequest(rt.method, srv.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("%s %s: still sends a Deprecation header", rt.method, rt.path)
		}
		want[rt.method+" (unmatched)"]++
	}
	stats := tb.MS.RouteStats()
	for key, n := range want {
		if stats[key].Requests != n {
			t.Errorf("route counter %q = %d, want %d", key, stats[key].Requests, n)
		}
	}

	v2Flow(t, srv)
	for key := range tb.MS.RouteStats() {
		if _, unmatched := want[key]; !unmatched && !strings.Contains(key, " /api/v2/") {
			t.Errorf("matched route %q is outside /api/v2", key)
		}
	}
}

// TestUnmatchedMethodsShareOneBucket: net/http accepts any token as a
// method and the door counts before auth, so a client inventing methods
// must not grow the counter table: all of them land in one fixed bucket.
// Each request goes through a fresh Handler(), which shares the counters.
func TestUnmatchedMethodsShareOneBucket(t *testing.T) {
	ms := core.New(core.Config{})
	defer ms.Close()
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		ms.Handler().ServeHTTP(rec, httptest.NewRequest(fmt.Sprintf("AAAA%d", i), "/", nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("invented method %d: status %d, want 404", i, rec.Code)
		}
	}
	stats := ms.RouteStats()
	if len(stats) != 1 || stats["OTHER (unmatched)"].Requests != 100 {
		t.Fatalf("100 invented methods left %d route keys, want the one OTHER (unmatched) with 100 requests: %v", len(stats), stats)
	}
}

// TestV2IdempotencyTransientNotReplayed: transient failures (here
// no_task_manager 503) must not be stored for replay — the retry the
// key exists for has to execute fresh. Definitive 4xx outcomes ARE
// replayed.
func TestV2IdempotencyTransientNotReplayed(t *testing.T) {
	ms := core.New(core.Config{})
	defer ms.Close()
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()
	id, err := ms.Publish(t.Context(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	runURL := srv.URL + "/api/v2/servables/" + id + "/run"
	hdrs := map[string]string{core.IdempotencyKeyHeader: "transient-1"}

	// No TM registered: both attempts hit 503, and the second must be a
	// fresh execution (no replay marker), not a replay of the outage.
	for attempt := 1; attempt <= 2; attempt++ {
		resp, env := doV2(t, http.MethodPost, runURL, map[string]any{"input": "x"}, hdrs)
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != string(core.CodeNoTaskManager) {
			t.Fatalf("attempt %d: status %d env %+v", attempt, resp.StatusCode, env.Error)
		}
		if resp.Header.Get(core.IdempotencyReplayedHeader) != "" {
			t.Fatalf("attempt %d: transient failure was replayed", attempt)
		}
	}

	// A definitive 404 under a key IS replayed.
	ghostURL := srv.URL + "/api/v2/servables/ghost/model/run"
	hdrs = map[string]string{core.IdempotencyKeyHeader: "definitive-1"}
	resp, _ := doV2(t, http.MethodPost, ghostURL, map[string]any{"input": "x"}, hdrs)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(core.IdempotencyReplayedHeader) != "" {
		t.Fatalf("first 404: status %d replay=%q", resp.StatusCode, resp.Header.Get(core.IdempotencyReplayedHeader))
	}
	resp, env := doV2(t, http.MethodPost, ghostURL, map[string]any{"input": "x"}, hdrs)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(core.IdempotencyReplayedHeader) != "true" {
		t.Fatalf("second 404 should replay: status %d env %+v", resp.StatusCode, env.Error)
	}
}

// TestV2IdempotencyWaiterSurvivesCanceledLeader: a keyed duplicate
// waiting on an in-flight execution whose client cancels must not
// inherit the 499 — it re-executes as the new leader and succeeds.
func TestV2IdempotencyWaiterSurvivesCanceledLeader(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()
	id, err := ms.Publish(t.Context(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	runURL := srv.URL + "/api/v2/servables/" + id + "/run"
	body := []byte(`{"input":"x","no_cache":true,"no_memo":true}`)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, runURL, bytes.NewReader(body))
		req.Header.Set(core.IdempotencyKeyHeader, "wk1")
		_, err := http.DefaultClient.Do(req)
		leaderDone <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })

	type out struct {
		status int
		data   []byte
		err    error
	}
	dupDone := make(chan out, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, runURL, bytes.NewReader(body))
		req.Header.Set(core.IdempotencyKeyHeader, "wk1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			dupDone <- out{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		dupDone <- out{status: resp.StatusCode, data: raw}
	}()
	time.Sleep(50 * time.Millisecond) // duplicate parks on the in-flight entry
	cancelLeader()
	if err := <-leaderDone; err == nil {
		t.Fatal("leader request should have failed on cancel")
	}
	// The client has its error at once; the server notices the hang-up a
	// moment later. Until the leader's handler has returned its task is
	// still queued, and replyOnce would answer that one.
	waitFor(t, 2*time.Second, func() bool {
		return ms.RouteStats()["POST /api/v2/servables/{owner}/{name}/run"].Requests == 1
	})
	// The duplicate re-executes: serve its fresh dispatch.
	replyOnce(t, ms, tmID, "survived")
	select {
	case o := <-dupDone:
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("duplicate inherited leader's cancellation: status=%d err=%v body=%s", o.status, o.err, o.data)
		}
		if !bytes.Contains(o.data, []byte("survived")) {
			t.Fatalf("duplicate got wrong result: %s", o.data)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("duplicate still blocked after leader cancel")
	}
}

// The drain → rejoin lifecycle over the v2 wire: a drained TM leaves
// the draining list when POST /tms/{tm}/rejoin succeeds; rejoining an
// unknown TM is a typed no_task_manager error.
func TestV2TMRejoin(t *testing.T) {
	tb, srv := v2TB(t)

	resp, env := doV2(t, http.MethodPost, srv.URL+"/api/v2/tms/cooley-tm-1/drain", nil, nil)
	if resp.StatusCode != http.StatusOK || env.Error != nil {
		t.Fatalf("drain: status %d env %+v", resp.StatusCode, env.Error)
	}
	if draining := tb.MS.DrainingTMs(); len(draining) != 1 {
		t.Fatalf("after drain: draining = %v", draining)
	}

	resp, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/tms/cooley-tm-1/rejoin", nil, nil)
	if resp.StatusCode != http.StatusOK || env.Error != nil {
		t.Fatalf("rejoin: status %d env %+v", resp.StatusCode, env.Error)
	}
	var out struct {
		Status string `json:"status"`
		TM     string `json:"tm"`
	}
	if err := json.Unmarshal(env.Data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "rejoined" || out.TM != "cooley-tm-1" {
		t.Fatalf("rejoin payload = %+v", out)
	}
	if draining := tb.MS.DrainingTMs(); len(draining) != 0 {
		t.Fatalf("after rejoin: draining = %v", draining)
	}

	resp, env = doV2(t, http.MethodPost, srv.URL+"/api/v2/tms/ghost/rejoin", nil, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error == nil || env.Error.Code != string(core.CodeNoTaskManager) {
		t.Fatalf("rejoin unknown TM: status %d env %+v", resp.StatusCode, env.Error)
	}
}

// TestV2NegativeReplicasRejected: a negative replica count is a bad
// request at the door, for scale and deploy alike, and never reaches a
// Task Manager — where it used to be accepted, dispatched, and panic the
// TM process slicing its pod list. The TM must still answer a run.
func TestV2NegativeReplicasRejected(t *testing.T) {
	_, srv := v2TB(t)
	base := srv.URL + "/api/v2/servables/" + v2Flow(t, srv)
	for _, route := range []string{"/scale", "/deploy"} {
		resp, env := doV2(t, http.MethodPost, base+route, map[string]any{"replicas": -3}, nil)
		if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Code != string(core.CodeBadRequest) {
			t.Fatalf("%s replicas=-3: status %d env %+v, want 400 bad_request", route, resp.StatusCode, env.Error)
		}
	}
	if resp, env := doV2(t, http.MethodPost, base+"/run", map[string]any{"input": "after", "no_memo": true}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the refused scale: status %d err %+v", resp.StatusCode, env.Error)
	}
}
