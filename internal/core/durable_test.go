package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/store"
)

// walService is a service over a WAL in opts.Dir, not yet recovered.
func walService(t testing.TB, opts store.Options) *Service {
	t.Helper()
	w, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: container.NewRegistry(), Store: w, AutoscaleInterval: time.Hour, TaskRetention: -1})
	t.Cleanup(func() { s.Close(); w.Close() })
	return s
}

// codecPackage is a publication with what a JSON record must carry
// exactly: markup and escapes in text, a raw-JSON field laid out loosely,
// and component bytes that are not text.
func codecPackage(name, title string) *servable.Package {
	return &servable.Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name: name, Title: title, Authors: []string{"Doe, Jane", "Roe, R."},
				Description: "ünïcode, \"quoted\", back\\slash, <b>&amp;</b>",
				Domains:     []string{"materials science"}, VisibleTo: []string{"public", "urn:group:x"}, Year: 2019,
			},
			Servable: schema.Servable{
				Type: schema.TypePythonFunction, Entry: "noop:hello",
				Input:           schema.DataType{Kind: "ndarray", Shape: []int{-1, 3}},
				Output:          schema.DataType{Kind: "string"},
				Dependencies:    map[string]string{"python": "3.7"},
				ModelComponents: map[string]string{"weights": "w.bin"},
				Hyperparameters: map[string]json.RawMessage{
					"schedule": json.RawMessage(` { "lr" : [0.1, 1e-3, 2.50] , "decay": null } `),
					"depth":    json.RawMessage(`12`),
				},
				TrainingMetadata: map[string]json.RawMessage{"dataset": json.RawMessage(`"oqmd"`)},
			},
		},
		Components: map[string][]byte{"w.bin": {0x00, 0xff, 0x00, 0x80, 0x7f, 0xfe, 0xff}, "empty": {}},
	}
}

type codecStep struct {
	kind string
	do   func() error
}

// codecSteps are the mutations of the record codec tests, one record
// each and every kind at least once, applied to a. *id names the
// servable the first step publishes.
func codecSteps(a *Service, id *string) []codecStep {
	a.timeFunc = func() time.Time {
		return time.Date(2026, 10, 15, 9, 30, 1, 123456789, time.FixedZone("", -(3*3600+30*60)))
	}
	ctx := context.Background()
	return []codecStep{
		{recKindPublish, func() (err error) { *id, err = a.Publish(ctx, Anonymous, codecPackage("codec", "v1")); return err }},
		{recKindPublish, func() error { _, err := a.Publish(ctx, Anonymous, codecPackage("codec", "v2")); return err }},
		{recKindMetadata, func() error {
			return a.UpdateMetadata(Anonymous, *id, func(p *schema.Publication) { p.Description += " — edited\x00" })
		}},
		{recKindPublish, func() error { _, err := a.Publish(ctx, Anonymous, servable.NoopPackage()); return err }},
		{recKindUnpublish, func() error { return a.Unpublish(Anonymous, "anonymous/noop") }},
		{recKindDeploy, func() error {
			a.route.place(*id, "tm-1", 2)
			a.logged(recKindDeploy, recPlacement{ID: *id, TM: "tm-1", Replicas: 2})
			return nil
		}},
		{recKindDeploy, func() error {
			a.route.place(*id, "tm-2", 0)
			a.logged(recKindDeploy, recPlacement{ID: *id, TM: "tm-2"})
			return nil
		}},
		{recKindDeploy, func() error {
			a.route.place(*id, "tm-3", 0)
			a.logged(recKindDeploy, recPlacement{ID: *id, TM: "tm-3"})
			return nil
		}},
		{recKindUndeploy, func() error {
			a.route.removePlacement(*id, "tm-2")
			a.logged(recKindUndeploy, recPlacement{ID: *id, TM: "tm-2"})
			return nil
		}},
		{recKindScale, func() error {
			a.recordReplicas(*id, 3)
			a.logged(recKindScale, recPlacement{ID: *id, Replicas: 3})
			return nil
		}},
		{recKindDrain, func() error { a.route.markDraining("tm-1"); a.logged(recKindDrain, recTM{TM: "tm-1"}); return nil }},
		{recKindDrain, func() error { a.route.markDraining("tm-2"); a.logged(recKindDrain, recTM{TM: "tm-2"}); return nil }},
		{recKindRejoin, func() error { a.route.clearDrainMark("tm-2"); a.logged(recKindRejoin, recTM{TM: "tm-2"}); return nil }},
		{recKindDeregister, func() error { a.route.deregister("tm-3"); a.logged(recKindDeregister, recTM{TM: "tm-3"}); return nil }},
		{recKindPolicy, func() error {
			return a.SetAutoscalePolicy(Anonymous, *id, AutoscalePolicy{
				Enabled: true, MinReplicas: 2, MaxReplicas: 7, TargetLoad: 1.25,
				ScaleUpCooldown: 1500 * time.Millisecond, ScaleDownCooldown: 45*time.Second + 7, MaxQueue: -1,
			})
		}},
		{recKindTenant, func() error {
			_, err := a.SetTenantQuota("acme", auth.Quota{MaxInFlight: 3, RatePerSec: 2.718281828459045, Priority: "high"})
			return err
		}},
		{recKindTenantBind, func() error { a.BindTenant("urn:identity:local:alice", "acme"); return nil }},
		{recKindTenantBind, func() error { a.BindTenant("urn:identity:local:bob", "bobs-team"); return nil }},
		{recKindTenantBind, func() error { a.BindTenant("urn:identity:local:bob", "acme"); return nil }},
		{recKindUser, func() error {
			u := userRecord{Provider: "local", Username: "alice", PasswordHash: auth.HashPassword("pw"), FullName: "Alice Ä", Email: "a@example.org"}
			a.installUserIfAbsent(u)
			a.logged(recKindUser, u)
			return nil
		}},
	}
}

// requireSameState fails unless b holds a's durable state: the same
// fingerprint, every version of id's document (time to the nanosecond
// with its offset, raw JSON as JSON values) and every component byte.
func requireSameState(t *testing.T, a, b *Service, id string) {
	t.Helper()
	if want, got := a.StateFingerprint(), b.StateFingerprint(); got != want {
		t.Fatalf("fingerprint after recovery\n--- want\n%s--- got\n%s", want, got)
	}
	wantVs, gotVs := a.repo.versionsOf(id), b.repo.versionsOf(id)
	if len(gotVs) != len(wantVs) {
		t.Fatalf("%d versions, want %d", len(gotVs), len(wantVs))
	}
	for i := range wantVs {
		w, g := wantVs[i], gotVs[i]
		if !g.PublishedAt.Equal(w.PublishedAt) || g.PublishedAt.Format(time.RFC3339Nano) != w.PublishedAt.Format(time.RFC3339Nano) {
			t.Fatalf("v%d published_at %s, want %s", i+1, g.PublishedAt.Format(time.RFC3339Nano), w.PublishedAt.Format(time.RFC3339Nano))
		}
		for k, raw := range w.Servable.Hyperparameters {
			var wv, gv any
			if json.Unmarshal(raw, &wv) != nil || json.Unmarshal(g.Servable.Hyperparameters[k], &gv) != nil || !reflect.DeepEqual(gv, wv) {
				t.Fatalf("v%d hyperparameter %s is %s, want %s", i+1, k, g.Servable.Hyperparameters[k], raw)
			}
		}
		// Everything else, raw JSON now compared compacted.
		wj, _ := json.Marshal(w)
		gj, _ := json.Marshal(g)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("v%d after recovery\n got %s\nwant %s", i+1, gj, wj)
		}
	}
	wantC, gotC := a.repo.pkg(id).Components, b.repo.pkg(id).Components
	if len(gotC) != len(wantC) {
		t.Fatalf("components %v, want %v", gotC, wantC)
	}
	for name, data := range wantC {
		if !bytes.Equal(gotC[name], data) {
			t.Fatalf("component %s is %x, want %x", name, gotC[name], data)
		}
	}
}

// TestRecordCodecRoundTrip writes one record of every kind through
// logged — each applied in memory first, as the call that writes it
// does — kills the service, and recovers a fresh one from the log alone:
// it must hold the same durable state.
func TestRecordCodecRoundTrip(t *testing.T) {
	opts := store.Options{Dir: t.TempDir(), CompactEvery: -1, CompactBytes: -1}
	a := walService(t, opts)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	var id string
	steps := codecSteps(a, &id)
	for i, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("step %d (%s): %v", i, st.kind, err)
		}
	}
	a.Close()
	a.cfg.Store.Close() // a kill: no checkpoint, the whole state is in the log

	b := walService(t, opts)
	info, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointLoaded || info.Replayed != len(steps) {
		t.Fatalf("recovered %+v, want %d records replayed and no checkpoint", info, len(steps))
	}
	requireSameState(t, a, b, id)
}

// recordKinds is the taxonomy in durable.go.
var recordKinds = map[string]bool{
	recKindPublish: true, recKindMetadata: true, recKindUnpublish: true,
	recKindDeploy: true, recKindUndeploy: true, recKindScale: true,
	recKindDrain: true, recKindRejoin: true, recKindDeregister: true,
	recKindPolicy: true, recKindTenant: true, recKindTenantBind: true, recKindUser: true,
}

// TestCheckpointAtEveryStep runs TestRecordCodecRoundTrip's steps with a
// checkpoint after step k, for every k, then kills the service and
// recovers a fresh one from the checkpoint plus the tail after it. Every
// record in the checkpoint must be JSON of a kind in the taxonomy, and
// the recovered state must be the live state: the replay handlers are
// upserts wherever a checkpoint falls.
func TestCheckpointAtEveryStep(t *testing.T) {
	n := len(codecSteps(&Service{}, new(string)))
	for k := 0; k < n; k++ {
		opts := store.Options{Dir: t.TempDir(), CompactEvery: -1, CompactBytes: -1}
		a := walService(t, opts)
		if _, err := a.Recover(); err != nil {
			t.Fatal(err)
		}
		var id string
		for i, st := range codecSteps(a, &id) {
			if err := st.do(); err != nil {
				t.Fatalf("k=%d: step %d (%s): %v", k, i, st.kind, err)
			}
			if i == k {
				if err := a.Checkpoint(); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
			}
		}
		a.Close()
		a.cfg.Store.Close() // a kill: no shutdown checkpoint

		checkpointRecords(t, filepath.Join(opts.Dir, "checkpoint.log"), func(rec store.Record) {
			if !recordKinds[rec.Kind] || !json.Valid(rec.Data) || rec.Seq != 0 {
				t.Errorf("k=%d: checkpoint record %d %q is not a JSON record of a known kind: %q", k, rec.Seq, rec.Kind, rec.Data)
			}
		})
		b := walService(t, opts)
		info, err := b.Recover()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !info.CheckpointLoaded || info.Replayed != n-1-k {
			t.Fatalf("k=%d: recovered %+v, want the checkpoint and %d records", k, info, n-1-k)
		}
		requireSameState(t, a, b, id)
	}
}

// checkpointRecords calls fn with every record of the checkpoint file at
// path, read by the store's own recovery from a copy of it alone.
func checkpointRecords(t *testing.T, path string, fn func(store.Record)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Recover(nil, func(rec store.Record) error { fn(rec); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRecordFromOlderBuildIsRefused puts a record in the format before
// JSON — a gob-encoded metadata record behind a valid CRC — in the log:
// Recover must fail naming its seq, its kind and what is wrong, and
// leave the log exactly as it was.
func TestRecordFromOlderBuildIsRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recover(nil, func(store.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	doc := servable.NoopPackage().Doc
	doc.ID, doc.Owner, doc.Version = "anonymous/noop", Anonymous.IdentityID, 1
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(recMetadata{ID: doc.ID, Doc: doc}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(store.Record{Kind: recKindMetadata, Data: old.Bytes()}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	logPath := filepath.Join(dir, "wal.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	_, err = walService(t, store.Options{Dir: dir}).Recover()
	if err == nil {
		t.Fatal("Recover accepted a record that is not JSON")
	}
	for _, want := range []string{"record 1 ", "(metadata)", "not a JSON record"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused log changed: %d bytes, was %d (%v)", len(after), len(before), err)
	}
}

// TestUnknownRecordKindIsRefused puts a record of a kind this build does
// not know — as a newer build would write it — at the end of the log:
// Recover must fail naming the kind and the seq, and leave the log as it
// was. Skipping the record would lose it for good at the compaction
// after replay.
func TestUnknownRecordKindIsRefused(t *testing.T) {
	opts := store.Options{Dir: t.TempDir()}
	a := walService(t, opts)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Publish(context.Background(), Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.cfg.Store.Close()
	logPath := filepath.Join(opts.Dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteRecord(f, store.Record{Seq: 2, Kind: "future_kind", Data: []byte(`{"ID":"x"}`)}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	_, err = walService(t, opts).Recover()
	if err == nil {
		t.Fatal("Recover accepted a record kind it does not know")
	}
	for _, want := range []string{`"future_kind"`, "seq 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused log changed: %d bytes, was %d (%v)", len(after), len(before), err)
	}
}

// TestNonFiniteRatesAreRejected: NaN fails every comparison, so a
// "must be >= 0" check alone let it through (and a scenario's
// rate_per_sec: nan reached it). NaN and both infinities are a
// bad_request that changes no state and writes no record.
func TestNonFiniteRatesAreRejected(t *testing.T) {
	s := walService(t, store.Options{Dir: t.TempDir(), CompactEvery: -1, CompactBytes: -1})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	id, err := s.Publish(context.Background(), Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func() error{
			"rate_per_sec": func() error { _, err := s.SetTenantQuota("acme", auth.Quota{RatePerSec: v}); return err },
			"target_load": func() error {
				return s.SetAutoscalePolicy(Anonymous, id, AutoscalePolicy{Enabled: true, TargetLoad: v})
			},
		} {
			state, records := s.StateFingerprint(), s.WALStats().Records
			if err := set(); !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s %v: got %v, want bad_request", name, v, err)
			}
			if got := s.StateFingerprint(); got != state {
				t.Errorf("%s %v changed state\n--- before\n%s--- after\n%s", name, v, state, got)
			}
			if got := s.WALStats().Records; got != records {
				t.Errorf("%s %v wrote %d records", name, v, got-records)
			}
		}
	}
}

// BenchmarkLoggedMetadata is the WAL half of a PATCH: one metadata
// record encoded and appended to a log that does not fsync.
func BenchmarkLoggedMetadata(b *testing.B) {
	s := walService(b, store.Options{Dir: b.TempDir()})
	if _, err := s.Recover(); err != nil {
		b.Fatal(err)
	}
	id, err := s.Publish(context.Background(), Anonymous, servable.NoopPackage())
	if err != nil {
		b.Fatal(err)
	}
	doc, _ := s.repo.latest(id)
	rec := recMetadata{ID: id, Doc: doc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.logged(recKindMetadata, rec)
	}
}

// benchCatalogue is a recovered service on a WAL in dir holding 500
// documents shaped like the benchmark's repo-mixed catalogue, the first
// twoVersions of them published twice.
func benchCatalogue(b *testing.B, dir string, twoVersions int) *Service {
	s := walService(b, store.Options{Dir: dir, CompactEvery: -1, CompactBytes: -1})
	if _, err := s.Recover(); err != nil {
		b.Fatal(err)
	}
	words := strings.Fields("alloy bandgap crystal dendrite enzyme fracture galaxy hadron isotope jet kinase lattice")
	for i := 0; i < 500+twoVersions; i++ {
		doc := &schema.Document{
			Publication: schema.Publication{
				Name:        fmt.Sprintf("m-%04d", i%500),
				Title:       words[i%len(words)] + " " + words[(i/len(words))%len(words)] + " model",
				Authors:     []string{"Bench, A.", "Mark, B."},
				Description: strings.Join(words[i%4:i%4+8], " "),
				Domains:     []string{"benchmarking"},
				VisibleTo:   []string{"public"},
				Year:        2000 + i%20,
			},
			Servable: schema.Servable{
				Type: schema.TypePythonFunction, Entry: "noop:hello",
				Input: schema.DataType{Kind: "string"}, Output: schema.DataType{Kind: "string"},
			},
		}
		if _, err := s.Publish(context.Background(), Anonymous, &servable.Package{Doc: doc}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkCheckpoint is one compaction of the 500-document catalogue: the
// whole state written as records to a temp file, fsynced, renamed over the
// checkpoint, the log truncated.
func BenchmarkCheckpoint(b *testing.B) {
	s := benchCatalogue(b, b.TempDir(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverCheckpoint is one boot from a checkpoint of the
// catalogue with 100 servables at two versions, and an empty tail: only
// Recover is timed, not opening the WAL or building the service.
func BenchmarkRecoverCheckpoint(b *testing.B) {
	dir := b.TempDir()
	if err := benchCatalogue(b, dir, 100).Checkpoint(); err != nil {
		b.Fatal(err)
	}
	opts := store.Options{Dir: dir, CompactEvery: -1, CompactBytes: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Registry: container.NewRegistry(), Store: w, AutoscaleInterval: time.Hour, TaskRetention: -1})
		b.StartTimer()
		if info, err := s.Recover(); err != nil || !info.CheckpointLoaded || info.Replayed != 0 {
			b.Fatalf("recover: %+v, %v", info, err)
		}
		b.StopTimer()
		s.Close()
		w.Close()
		b.StartTimer()
	}
}
