package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// The repository's contract (repository.go): an installed document is
// never written again, and the index changes in the same critical
// section as the entry it describes. Each test here failed before the
// repository type existed.

// TestRepositoryReadsBesideWritesOverHTTP runs the repo-mixed mix on one
// servable — GET, PATCH and search through Handler(), and checkpoints —
// concurrently. Its assertion is the race detector's: the PATCH used to
// edit the very document the GET response was being encoded from.
func TestRepositoryReadsBesideWritesOverHTTP(t *testing.T) {
	ms := unrecovered(t, t.TempDir(), 0)
	if _, err := ms.Recover(); err != nil {
		t.Fatal(err)
	}
	id := publishStep(t, ms, core.Anonymous, "mixed")
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	const rounds = 60
	var wg sync.WaitGroup
	worker := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	call := func(method, path, body string) error {
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
		}
		return nil
	}
	worker(func(int) error { return call(http.MethodGet, "/api/v2/servables/"+id, "") })
	worker(func(i int) error {
		return call(http.MethodPatch, "/api/v2/servables/"+id, fmt.Sprintf(`{"description":"edit %d"}`, i))
	})
	worker(func(int) error { return call(http.MethodPost, "/api/v2/search", `{"q":"noop"}`) })
	worker(func(int) error { return ms.Checkpoint() })
	// Delete and re-ingest beside the search, on a second servable so
	// that the GET and PATCH above always find theirs.
	churned := publishStep(t, ms, core.Anonymous, "churned")
	worker(func(int) error {
		if err := call(http.MethodDelete, "/api/v2/servables/"+churned, ""); err != nil {
			return err
		}
		pkg := servable.NoopPackage()
		pkg.Doc.Publication.Name = "churned"
		_, err := ms.Publish(context.Background(), core.Anonymous, pkg)
		return err
	})
	wg.Wait()
}

// TestUpdateMetadataIsCopyOnWrite: a rejected edit leaves the document
// as it was (it used to stay applied), and a document obtained before
// an accepted edit still reads the old text after it.
func TestUpdateMetadataIsCopyOnWrite(t *testing.T) {
	ms := newPipelineMS(t)
	id := publishStep(t, ms, core.Anonymous, "cow")
	before, err := ms.Get(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	title, desc := before.Publication.Title, before.Publication.Description

	err = ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) { p.Title = "" })
	if err == nil {
		t.Fatal("an update that empties the title was accepted")
	}
	if doc, _ := ms.Get(core.Anonymous, id); doc.Publication.Title != title {
		t.Fatalf("rejected update stayed applied: title %q, want %q", doc.Publication.Title, title)
	}
	res, err := ms.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: title}}})
	if err != nil || res.Total != 1 {
		t.Fatalf("search by the kept title: total %d, err %v", res.Total, err)
	}

	if err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) { p.Description = "rewritten" }); err != nil {
		t.Fatal(err)
	}
	after, _ := ms.Get(core.Anonymous, id)
	if after.Publication.Description != "rewritten" {
		t.Fatalf("accepted update not visible: %q", after.Publication.Description)
	}
	if before.Publication.Description != desc {
		t.Fatalf("a document handed out before the update changed under its reader: %q", before.Publication.Description)
	}
	if vs, _ := ms.Versions(core.Anonymous, id); len(vs) != 1 || vs[0] != after {
		t.Fatalf("the edit must replace the latest version in place, not add one: %d version(s)", len(vs))
	}
}

// TestSearchHitOutlivesAnUpdate: a hit shares the indexed document and
// does not copy it, so what keeps a held hit consistent is that an update
// indexes a new document and leaves the old one alone.
func TestSearchHitOutlivesAnUpdate(t *testing.T) {
	ms := newPipelineMS(t)
	id := publishStep(t, ms, core.Anonymous, "held")
	byID := search.Query{Must: []search.Clause{{Field: "id", Term: id}}}
	held, err := ms.Search(context.Background(), core.Anonymous, byID)
	if err != nil || held.Total != 1 {
		t.Fatalf("search by id: total %d, err %v", held.Total, err)
	}
	title := held.Hits[0].Doc.Fields["title"]

	if err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) { p.Title = "retitled" }); err != nil {
		t.Fatal(err)
	}
	if got := held.Hits[0].Doc.Fields["title"]; got != title {
		t.Fatalf("a hit held across the update changed under its reader: title %q, was %q", got, title)
	}
	fresh, _ := ms.Search(context.Background(), core.Anonymous, byID)
	if fresh.Total != 1 || fresh.Hits[0].Doc.Fields["title"] != "retitled" {
		t.Fatalf("a search after the update: %+v", fresh.Hits)
	}
}

// TestOwnerFindsWhatGetShows: Get shows a servable to its owner whoever
// visible_to names, so list and search must too. After the §VI-A CANDLE
// flow — the owner restricts a model to a tester group they are not in —
// the index used to filter on visible_to alone and hid it from them.
func TestOwnerFindsWhatGetShows(t *testing.T) {
	ms := newPipelineMS(t)
	id := publishStep(t, ms, core.Anonymous, "restricted")
	err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) {
		p.VisibleTo = []string{"urn:group:candle-testers"}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Get(core.Anonymous, id); err != nil {
		t.Fatalf("the owner's Get: %v", err)
	}
	res, err := ms.Search(context.Background(), core.Anonymous, search.Query{})
	if err != nil || res.Total != 1 || res.Hits[0].Doc.ID != id {
		t.Fatalf("the owner's search: total %d, err %v; Get shows %s", res.Total, err, id)
	}
	rec := httptest.NewRecorder()
	ms.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v2/servables", nil))
	if !strings.Contains(rec.Body.String(), `"`+id+`"`) {
		t.Fatalf("the owner's list does not name %s: %s", id, rec.Body)
	}

	stranger := core.Caller{IdentityID: "urn:identity:stranger", Principals: []string{"public", "urn:identity:stranger"}}
	if _, err := ms.Get(stranger, id); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("a stranger's Get: %v, want not found", err)
	}
	if res, _ := ms.Search(context.Background(), stranger, search.Query{}); res.Total != 0 {
		t.Fatalf("a stranger's search found %d restricted servable(s)", res.Total)
	}
}

// TestPublishRacingUnpublishLeavesNoGhostHits: whichever way each round
// of the race goes, every search hit must name a servable Get resolves.
// Publish used to index after dropping the lock, so an Unpublish landing
// in between left a hit for a servable that answered 404.
func TestPublishRacingUnpublishLeavesNoGhostHits(t *testing.T) {
	ms := newPipelineMS(t)
	ctx := context.Background()
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			pkg := servable.NoopPackage()
			pkg.Doc.Publication.Name = "ghost"
			if _, err := ms.Publish(ctx, core.Anonymous, pkg); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := ms.Unpublish(core.Anonymous, "anonymous/ghost"); err != nil && !errors.Is(err, core.ErrNotFound) {
				t.Error(err)
			}
		}()
		wg.Wait()
		res, err := ms.Search(ctx, core.Anonymous, search.Query{})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Hits {
			if _, err := ms.Get(core.Anonymous, h.Doc.ID); err != nil {
				t.Fatalf("round %d: search hit %s, but Get says %v", round, h.Doc.ID, err)
			}
		}
		_, getErr := ms.Get(core.Anonymous, "anonymous/ghost")
		if published := getErr == nil; published != (res.Total == 1) {
			t.Fatalf("round %d: published=%v but search total=%d", round, published, res.Total)
		}
	}
}

// TestBatchReservesItsInputCount: a batch of 8 in flight against
// MaxQueue 4 holds 8 admission units, so the next run is overloaded —
// on the cached path as on the no_memo one, which used to be the only
// one that weighed a batch by its size.
func TestBatchReservesItsInputCount(t *testing.T) {
	for _, opts := range []core.RunOptions{{}, {NoMemo: true}} {
		t.Run(fmt.Sprintf("no_memo=%v", opts.NoMemo), func(t *testing.T) {
			ms := core.New(core.Config{MaxQueue: 4})
			t.Cleanup(ms.Close)
			tm := startScriptedTM(t, ms, "tm-1")
			if err := ms.WaitForTM(1, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			id := publishStep(t, ms, core.Anonymous, "weighed")
			ctx := context.Background()

			inputs := make([]any, 8)
			for i := range inputs {
				inputs[i] = i
			}
			batchErr := make(chan error, 1)
			go func() {
				_, err := ms.RunBatch(ctx, core.Anonymous, id, inputs, opts)
				batchErr <- err
			}()
			parked := tm.waitTask(5 * time.Second)

			if _, err := ms.Run(ctx, core.Anonymous, id, "x", opts); !errors.Is(err, core.ErrOverloaded) {
				t.Fatalf("single run beside a batch of 8 (MaxQueue 4): %v, want overloaded", err)
			}
			rec := httptest.NewRecorder()
			ms.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v2/stats", nil))
			if !strings.Contains(rec.Body.String(), `"in_flight":8`) {
				t.Fatalf("stats while the batch runs want tenants.anonymous.in_flight 8: %s", rec.Body)
			}

			parked.reply(taskmanager.Reply{OK: true, Outputs: inputs})
			if err := <-batchErr; err != nil {
				t.Fatal(err)
			}
			if !ms.ReservationsEmpty() {
				t.Fatal("the batch's reservation outlived it")
			}
		})
	}
}

// benchCatalogue publishes n servables with the benchmark catalogue's
// document shape (benchmark/workload.go), every title holding "alloy",
// and returns the service and their IDs.
func benchCatalogue(t testing.TB, n int) (*core.Service, []string) {
	t.Helper()
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	t.Cleanup(ms.Close)
	words := strings.Fields("bandgap crystal dendrite enzyme fracture galaxy hadron isotope")
	ids := make([]string, n)
	for i := range ids {
		pkg := servable.NoopPackage()
		pkg.Doc.Publication = schema.Publication{
			Name:        fmt.Sprintf("m-%04d", i),
			Title:       "alloy " + words[i%len(words)] + " model",
			Authors:     []string{"Bench, A.", "Mark, B."},
			Description: "predicts " + words[(i+3)%len(words)] + " from measured samples images sequences structures",
			Domains:     []string{"benchmarking"},
			VisibleTo:   []string{"public"},
			Year:        2000 + i%20,
		}
		pkg.Doc.Servable.Input.Description = ""
		id, err := ms.Publish(context.Background(), core.Anonymous, pkg)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ms, ids
}

// serveRepo sends one request through h and checks its status and that
// the body holds want.
func serveRepo(t testing.TB, h http.Handler, method, path string, body []byte, want string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
		t.Fatalf("%s %s: status %d, want %s in %s", method, path, rec.Code, want, rec.Body.Bytes())
	}
}

// BenchmarkSearchHTTP is repo-mixed's search through Handler(): a page
// of 10 hits out of 40, each hit a flattened document.
func BenchmarkSearchHTTP(b *testing.B) {
	ms, _ := benchCatalogue(b, 40)
	h := ms.Handler()
	body := []byte(`{"q":"alloy","limit":10}`)
	b.ReportAllocs()
	for b.Loop() {
		serveRepo(b, h, http.MethodPost, "/api/v2/search", body, `"total":40,"next_cursor"`)
	}
}

// BenchmarkGetHTTP is repo-mixed's GET through Handler(): one document
// and its placements.
func BenchmarkGetHTTP(b *testing.B) {
	ms, ids := benchCatalogue(b, 1)
	h := ms.Handler()
	path := "/api/v2/servables/" + ids[0]
	b.ReportAllocs()
	for b.Loop() {
		serveRepo(b, h, http.MethodGet, path, nil, `"placements":[]`)
	}
}
