package core_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/store"
)

// The checkpoint codec (persist.go) is reached only through the store:
// Checkpoint() folds the whole repository into dir/repository.gob and
// empties the log, so a fresh service's Recover() over that directory
// restores purely from the codec — every test below asserts
// CheckpointLoaded with nothing replayed where that matters.

// unrecovered builds a store-backed service over dir WITHOUT recovering.
// The store refuses appends until Recover, so whatever the caller does
// to the service first lives in memory only: the "live state" a restore
// must replace.
func unrecovered(t *testing.T, dir string, compactEvery int) *core.Service {
	t.Helper()
	ms, _ := unrecoveredStore(t, dir, compactEvery)
	return ms
}

// unrecoveredStore is unrecovered for tests that simulate a kill and
// reopen dir: they must Close the returned store at the kill, or its
// background compaction keeps rewriting the directory under the next
// incarnation's Recover. (Close takes no checkpoint, so the tail still
// replays — it is a kill as far as the data is concerned.)
func unrecoveredStore(t *testing.T, dir string, compactEvery int) (*core.Service, *store.WAL) {
	t.Helper()
	w, err := store.Open(store.Options{Dir: dir, Sync: false, CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	ms := core.New(core.Config{Registry: container.NewRegistry(), Store: w})
	t.Cleanup(func() { ms.Close(); w.Close() })
	return ms, w
}

// recoverFromCheckpoint runs Recover and requires the state to have come
// from the checkpoint file alone.
func recoverFromCheckpoint(t *testing.T, ms *core.Service) {
	t.Helper()
	info, err := ms.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("want a pure checkpoint restore, got %+v", info)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// Populate a service: two servables, one with two versions and
	// components.
	ms, _ := openRecovered(t, dir, 0)
	cifar, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ms.Publish(context.Background(), core.Anonymous, cifar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	cifar2, _ := servable.CIFAR10Package(2)
	if _, err := ms.Publish(context.Background(), core.Anonymous, cifar2); err != nil { // version 2
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms.Close()

	// A fresh service restores everything.
	ms2 := unrecovered(t, dir, 0)
	recoverFromCheckpoint(t, ms2)
	doc, err := ms2.Get(core.Anonymous, id1)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 {
		t.Fatalf("latest version lost: %d", doc.Version)
	}
	versions, err := ms2.Versions(core.Anonymous, id1)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 {
		t.Fatalf("version history lost: %d", len(versions))
	}
	// Search index rebuilt.
	res, _ := ms2.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: "cifar convolutional"}}})
	if res.Total != 1 {
		t.Fatalf("index not rebuilt: %d hits", res.Total)
	}
}

func TestCheckpointServesAfterRecover(t *testing.T) {
	dir := t.TempDir()
	// Checkpoint from one deployment...
	ms, _ := openRecovered(t, dir, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms.Close()

	// ...recover into a full testbed and serve the restored servable.
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// The package (components included) survived, so deploy works.
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	res, err := tb.MS.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := outValue(t, res.Output).(map[string]any); len(m) != 2 {
		t.Fatalf("restored servable broken: %v", m)
	}
}

// checkpointDeployedUtil publishes and deploys the matminer util
// servable in a full testbed over dir (so a placement on cooley-tm-1 is
// recorded), checkpoints, and shuts the testbed down.
func checkpointDeployedUtil(t *testing.T, dir string) string {
	t.Helper()
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	utilID, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, utilID, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if got, _ := tb.MS.ServablePlacements(core.Anonymous, utilID); len(got) != 1 {
		t.Fatalf("testbed deploy recorded no placement: %v", got)
	}
	if err := tb.MS.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return utilID
}

// TestRecoverOverNonEmptyService pins the restore-over-live-state
// contract: the search index is rebuilt from scratch (no entries
// surviving for servables absent from the checkpoint, no duplicates)
// and restored placements are kept verbatim.
func TestRecoverOverNonEmptyService(t *testing.T) {
	dir := t.TempDir()
	utilID := checkpointDeployedUtil(t, dir)

	// The target service is NOT empty: it has its own publication (not
	// in the checkpoint).
	ms := unrecovered(t, dir, 0)
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	recoverFromCheckpoint(t, ms)

	// The pre-load publication is gone from the repository AND from the
	// index: a search for it must find nothing, not a ghost hit.
	res, _ := ms.Search(context.Background(), core.Anonymous, search.Query{Must: []search.Clause{{FreeText: "noop baseline"}}})
	if res.Total != 0 {
		t.Fatalf("stale index entry survived the load: %d hits", res.Total)
	}
	// The restored publication is indexed exactly once.
	res, _ = ms.Search(context.Background(), core.Anonymous, search.Query{})
	if res.Total != 1 {
		t.Fatalf("index should hold exactly the checkpoint's 1 doc, got %d", res.Total)
	}
	// Placements are restored verbatim: at boot-time restore no TM has
	// registered yet, so dropping unknown-TM placements here would drop
	// everything on every restart. Routing (pickTM) is what ignores
	// placements naming unregistered TMs — see the ghost-routing test.
	if got, _ := ms.ServablePlacements(core.Anonymous, utilID); len(got) != 1 {
		t.Fatalf("restored placement lost: %v", got)
	}
	// Recovering into a service that DOES know the TM keeps the
	// placement usable end to end.
	tb2, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	if got, _ := tb2.MS.ServablePlacements(core.Anonymous, utilID); len(got) != 1 {
		t.Fatalf("valid placement dropped: %v", got)
	}
}

// TestRestoredGhostPlacementDoesNotBlackHole pins the routing half of
// the stale-placement fix: a checkpointed placement naming a TM that no
// longer exists must not route requests into the ghost's queue (they
// would hang until the full task timeout). Routing falls back to the
// registered TMs, which answer fast — here with task_failed, because
// the fresh site never deployed the servable.
func TestRestoredGhostPlacementDoesNotBlackHole(t *testing.T) {
	dir := t.TempDir()
	utilID := checkpointDeployedUtil(t, dir) // "cooley-tm-1" is now a ghost

	ms := unrecovered(t, dir, 0)
	newSite(t, ms, "fresh-tm")
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	recoverFromCheckpoint(t, ms)
	// The placement names cooley-tm-1 (unregistered); the run must be
	// routed to fresh-tm and fail fast with task_failed — NOT sit out
	// the deadline in a queue nobody consumes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := ms.Run(ctx, core.Anonymous, utilID, "NaCl", core.RunOptions{})
	if !errors.Is(err, core.ErrTaskFailed) {
		t.Fatalf("want fast task_failed from the live TM, got %v after %v", err, time.Since(start))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("run took %v — routed into the ghost queue", time.Since(start))
	}
}

// TestRecoverFlushesCache pins that cached results from before the
// restore cannot be served after it.
func TestRecoverFlushesCache(t *testing.T) {
	dir := t.TempDir()
	seed, _ := openRecovered(t, dir, 0)
	if _, err := seed.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage()); err != nil {
		t.Fatal(err)
	}
	if err := seed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	ms := unrecovered(t, dir, 0)
	newSite(t, ms, "fresh-tm")
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := ms.CacheStats(); st.Entries == 0 {
		t.Fatal("setup: expected a warm cache entry")
	}
	recoverFromCheckpoint(t, ms)
	if st := ms.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache entries survived the restore: %+v", st)
	}
}

// TestCheckpointConcurrentMetadataUpdates races Checkpoint against
// UpdateMetadata; under -race this pins the deep-copy-under-lock fix
// (the encoder must never serialize a document being mutated).
func TestCheckpointConcurrentMetadataUpdates(t *testing.T) {
	dir := t.TempDir()
	ms, _ := openRecovered(t, dir, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			err := ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) {
				p.Description = fmt.Sprintf("rev %d", i)
				p.VisibleTo = []string{"public", fmt.Sprintf("group-%d", i)}
			})
			if err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if err := ms.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	<-done
	// The last checkpoint must still round-trip.
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms.Close()
	ms2 := unrecovered(t, dir, 0)
	recoverFromCheckpoint(t, ms2)
	if _, err := ms2.Get(core.Anonymous, id); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCheckpointErrors: a directory with no checkpoint is a
// first boot (empty, no error); a corrupt checkpoint fails recovery
// instead of silently starting empty.
func TestRecoverCheckpointErrors(t *testing.T) {
	info, err := unrecovered(t, t.TempDir(), 0).Recover()
	if err != nil || info.CheckpointLoaded {
		t.Fatalf("missing checkpoint should be a clean first boot, got %+v / %v", info, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "repository.gob"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := unrecovered(t, dir, 0).Recover(); err == nil {
		t.Fatal("corrupt checkpoint should error")
	}
}

func TestCheckpointAtomicNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	ms, _ := openRecovered(t, dir, 0)
	ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()) //nolint:errcheck
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	if len(names) != 2 || names[0] != "repository.gob" || names[1] != "wal.log" {
		t.Fatalf("temp files left behind: %v", names)
	}
}

// TestRecoverFromSnapshotOnlyDir is the upgrade path promised to users
// of the removed -snapshot mode (docs/OPERATIONS.md): a directory
// holding only repository.gob — no wal.log — recovers as a -data-dir
// with identical state.
func TestRecoverFromSnapshotOnlyDir(t *testing.T) {
	src := t.TempDir()
	ms, _ := openRecovered(t, src, 0)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{Enabled: true, MinReplicas: 1, MaxReplicas: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	ms.Close()

	gob, err := os.ReadFile(filepath.Join(src, "repository.gob"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "repository.gob"), gob, 0o644); err != nil {
		t.Fatal(err)
	}
	ms2 := unrecovered(t, dir, 0)
	recoverFromCheckpoint(t, ms2)
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("snapshot-only dir recovered differently\n--- want\n%s--- got\n%s", want, got)
	}
}
