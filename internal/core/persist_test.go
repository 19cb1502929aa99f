package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// The checkpoint (persist.go) is reached only through the store:
// Checkpoint() writes the whole repository as records to
// dir/checkpoint.log and empties the log, so a fresh service's Recover()
// over that directory rebuilds purely from the checkpoint — every test
// below asserts CheckpointLoaded with nothing replayed where that matters.

// unrecovered builds a store-backed service over dir WITHOUT recovering.
// The store refuses every commit until Recover, so the caller can change
// no durable state first.
func unrecovered(t *testing.T, dir string, compactEvery int) *core.Service {
	t.Helper()
	ms, _ := unrecoveredStore(t, dir, compactEvery)
	return ms
}

// unrecoveredStore is unrecovered for tests that simulate a kill and
// reopen dir: they must Close the returned store at the kill, or a late
// commit of the killed incarnation (one crossing compactEvery writes a
// checkpoint) could still change the directory under the next
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
		t.Fatalf("want a checkpoint and no tail, got %+v", info)
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

// TestRecoverKeepsPlacementsOfUnregisteredTMs pins what recovery from a
// checkpoint gives the catalogue and routing: the checkpoint's document
// indexed exactly once, and its placements kept verbatim although no TM
// has registered yet.
func TestRecoverKeepsPlacementsOfUnregisteredTMs(t *testing.T) {
	dir := t.TempDir()
	utilID := checkpointDeployedUtil(t, dir)

	ms := unrecovered(t, dir, 0)
	recoverFromCheckpoint(t, ms)
	res, _ := ms.Search(context.Background(), core.Anonymous, search.Query{})
	if res.Total != 1 {
		t.Fatalf("index should hold exactly the checkpoint's 1 doc, got %d", res.Total)
	}
	// Placements are kept verbatim: at boot no TM has registered yet, so
	// dropping unknown-TM placements here would drop everything on every
	// restart. Routing (pickTM) is what ignores placements naming
	// unregistered TMs — see the ghost-routing test.
	if got, _ := ms.ServablePlacements(core.Anonymous, utilID); len(got) != 1 {
		t.Fatalf("recovered placement lost: %v", got)
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

// TestNoCommitBeforeRecover: a service over a store refuses every
// durable change until Recover has run, so nothing can be published —
// and so nothing run or cached — from a state the restore then replaces.
func TestNoCommitBeforeRecover(t *testing.T) {
	dir := t.TempDir()
	seed, _ := openRecovered(t, dir, 0)
	if _, err := seed.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage()); err != nil {
		t.Fatal(err)
	}
	if err := seed.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := seed.StateFingerprint()
	seed.Close()

	ms := unrecovered(t, dir, 0)
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); !errors.Is(err, core.ErrUnavailable) {
		t.Fatalf("publish before Recover: got %v, want unavailable", err)
	}
	if got := ms.StateFingerprint(); got != "" {
		t.Fatalf("a refused publish left state behind:\n%s", got)
	}
	recoverFromCheckpoint(t, ms)
	if got := ms.StateFingerprint(); got != want {
		t.Fatalf("recovered state differs\n--- want\n%s--- got\n%s", want, got)
	}
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatalf("publish after Recover: %v", err)
	}
}

// TestRecoverFlushesCache pins that cached results from before the
// restore cannot be served after it. Recover needs no flush for this:
// before it runs nothing is published or deployed, so nothing can be run
// into the cache, and the first run after it is computed afresh.
func TestRecoverFlushesCache(t *testing.T) {
	dir := t.TempDir()
	seed, _ := openRecovered(t, dir, 0)
	id, err := seed.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
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
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err == nil {
		t.Fatal("a deploy before Recover succeeded")
	}
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{}); err == nil {
		t.Fatal("a run before Recover succeeded")
	}
	if st := ms.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache warmed before Recover: %+v", st)
	}
	recoverFromCheckpoint(t, ms)
	if st := ms.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache entries survived the restore: %+v", st)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	first, err := ms.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("the first run after the restore was served from the cache")
	}
	again, err := ms.Run(context.Background(), core.Anonymous, id, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("setup: a repeated run after the restore missed the cache")
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
// first boot (empty, no error). A checkpoint that is not records, one
// with a flipped byte, and a gob checkpoint an older build wrote each
// fail recovery instead of silently starting empty, and leave the
// directory exactly as it was.
func TestRecoverCheckpointErrors(t *testing.T) {
	info, err := unrecovered(t, t.TempDir(), 0).Recover()
	if err != nil || info.CheckpointLoaded {
		t.Fatalf("missing checkpoint should be a clean first boot, got %+v / %v", info, err)
	}

	src := t.TempDir()
	ms, _ := openRecovered(t, src, 0)
	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage()); err != nil {
		t.Fatal(err)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms.Close()
	valid, err := os.ReadFile(filepath.Join(src, "checkpoint.log"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10

	for _, tc := range []struct {
		name  string
		files map[string][]byte
		want  string
	}{
		{"junk", map[string][]byte{"checkpoint.log": []byte("junk")}, "checkpoint.log"},
		{"flipped byte", map[string][]byte{"checkpoint.log": flipped, "wal.log": nil, "checkpoint.log.tmp-1": []byte("partial")}, "checkpoint.log"},
		{"gob checkpoint", map[string][]byte{"repository.gob": []byte("an older build's checkpoint")}, "repository.gob was written by an older build"},
		{"gob beside records", map[string][]byte{"repository.gob": {1}, "checkpoint.log": valid, "wal.log": nil}, "repository.gob"},
	} {
		dir := t.TempDir()
		for name, data := range tc.files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirContents(t, dir)
		_, err := unrecovered(t, dir, 0).Recover()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recover error %v, want one naming %q", tc.name, err, tc.want)
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: the refused directory changed: %v, was %v", tc.name, after, before)
		}
	}
}

// dirContents maps every file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
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
	if len(names) != 2 || names[0] != "checkpoint.log" || names[1] != "wal.log" {
		t.Fatalf("temp files left behind: %v", names)
	}
}
