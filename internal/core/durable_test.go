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
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/store"
	"repro/internal/taskmanager"
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
			return commitRec(a, recKindDeploy, recPlacement{ID: *id, TM: "tm-1", Replicas: 2}, a.applyDeploy)
		}},
		{recKindDeploy, func() error { return commitRec(a, recKindDeploy, recPlacement{ID: *id, TM: "tm-2"}, a.applyDeploy) }},
		{recKindDeploy, func() error { return commitRec(a, recKindDeploy, recPlacement{ID: *id, TM: "tm-3"}, a.applyDeploy) }},
		{recKindUndeploy, func() error { return a.commitUndeploy(*id, "tm-2") }},
		{recKindScale, func() error { return commitRec(a, recKindScale, recPlacement{ID: *id, Replicas: 3}, a.applyScale) }},
		{recKindDrain, func() error { return commitRec(a, recKindDrain, recTM{TM: "tm-1"}, a.applyDrain) }},
		{recKindDrain, func() error { return commitRec(a, recKindDrain, recTM{TM: "tm-2"}, a.applyDrain) }},
		{recKindRejoin, func() error { return commitRec(a, recKindRejoin, recTM{TM: "tm-2"}, a.applyRejoin) }},
		{recKindDeregister, func() error { return a.DeregisterTM("tm-3") }},
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
		{recKindTenantBind, func() error { return a.BindTenant("urn:identity:local:alice", "acme") }},
		{recKindTenantBind, func() error { return a.BindTenant("urn:identity:local:bob", "bobs-team") }},
		{recKindTenantBind, func() error { return a.BindTenant("urn:identity:local:bob", "acme") }},
		{recKindUser, func() error {
			u := userRecord{Provider: "local", Username: "alice", PasswordHash: auth.HashPassword("pw"), FullName: "Alice Ä", Email: "a@example.org"}
			return commitRec(a, recKindUser, u, a.applyUser)
		}},
	}
}

// commitRec commits rec through its kind's apply with nothing to check:
// the record a Service method commits for a change that needs what the
// test has not got (a registered TM, an auth service).
func commitRec[T any](a *Service, kind string, rec T, apply func(T)) error {
	return a.commit(kind, func() (any, error) { return rec, nil }, func() { apply(rec) })
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

// TestRecordCodecRoundTrip commits one record of every kind, kills the
// service, and recovers a fresh one from the log alone: it must hold the
// same durable state.
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

// TestHeartbeatChangesNoDurableState: a heartbeat is liveness and load,
// never a durable change, even one that still asserts draining. What a
// live service holds after it is what its log recovers.
func TestHeartbeatChangesNoDurableState(t *testing.T) {
	opts := store.Options{Dir: t.TempDir()}
	a := walService(t, opts)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	a.Broker().Push(taskmanager.RegisterQueue, []byte(`{"tm_id":"site-a","active":0,"draining":true}`), "", "", "")
	if err := a.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	live := a.StateFingerprint()
	a.Close()
	a.cfg.Store.Close()

	b := walService(t, opts)
	if _, err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	if recovered := b.StateFingerprint(); recovered != live {
		t.Fatalf("live: %s / recovered: %q", live, recovered)
	}
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
// the recovered state must be the live state wherever a checkpoint
// falls.
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

// nopExecutor accepts every control-plane task and serves nothing.
type nopExecutor struct{}

func (nopExecutor) Name() string                        { return "parsl" }
func (nopExecutor) Deploy(*servable.Package, int) error { return nil }
func (nopExecutor) Scale(string, int) error             { return nil }
func (nopExecutor) Undeploy(string) error               { return nil }
func (nopExecutor) Replicas(string) int                 { return 0 }
func (nopExecutor) Close()                              {}
func (nopExecutor) Invoke(context.Context, string, any) (executor.Result, error) {
	return executor.Result{}, errors.New("nopExecutor serves nothing")
}

// failSites attaches one Task Manager per id, each with a nopExecutor,
// to s's broker. A Task Manager takes half a second to close, so they
// close together.
func failSites(t *testing.T, s *Service, ids ...string) {
	t.Helper()
	var tms []*taskmanager.TM
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, tm := range tms {
			wg.Add(1)
			go func() { defer wg.Done(); tm.Close() }()
		}
		wg.Wait()
	})
	for _, id := range ids {
		tm, err := taskmanager.New(taskmanager.Config{
			ID:        id,
			Queue:     taskmanager.BrokerAdapter{B: s.Broker()},
			Executors: map[string]executor.Executor{"parsl": nopExecutor{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		tms = append(tms, tm)
	}
	if err := s.WaitForTM(len(ids), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCommitChangesNothing closes the WAL under a live service and
// then calls each API that commits a record, one per record kind. Each
// call must fail with unavailable and leave the state as it was, and the
// directory must recover to that same state: nothing the service holds
// is missing from the log, and nothing the log holds is missing from the
// service.
func TestFailedCommitChangesNothing(t *testing.T) {
	ctx := context.Background()
	const id = "anonymous/noop"
	calls := []struct {
		kind string
		call func(s *Service) error
	}{
		{recKindPublish, func(s *Service) error { _, err := s.Publish(ctx, Anonymous, servable.NoopPackage()); return err }},
		{recKindMetadata, func(s *Service) error {
			return s.UpdateMetadata(Anonymous, id, func(p *schema.Publication) { p.Title = "edited" })
		}},
		{recKindUnpublish, func(s *Service) error { return s.Unpublish(Anonymous, id) }},
		{recKindDeploy, func(s *Service) error { return s.DeployTo(ctx, Anonymous, id, 2, "parsl", "tm-1") }},
		{recKindUndeploy, func(s *Service) error { return s.Undeploy(ctx, Anonymous, id, "tm-1") }},
		{recKindScale, func(s *Service) error { return s.Scale(ctx, Anonymous, id, 3, "parsl") }},
		{recKindDrain, func(s *Service) error { _, err := s.DrainTM(ctx, "tm-1"); return err }},
		{recKindRejoin, func(s *Service) error { return s.RejoinTM(ctx, "tm-2") }},
		{recKindDeregister, func(s *Service) error { return s.DeregisterTM("tm-2") }},
		{recKindPolicy, func(s *Service) error {
			return s.SetAutoscalePolicy(Anonymous, id, AutoscalePolicy{Enabled: true, MaxReplicas: 4})
		}},
		{recKindTenant, func(s *Service) error { _, err := s.SetTenantQuota("acme", auth.Quota{MaxInFlight: 2}); return err }},
		{recKindTenantBind, func(s *Service) error { return s.BindTenant("urn:identity:local:bob", "acme") }},
		{recKindUser, func(s *Service) error { _, err := s.RegisterUser("local", "bob", "pw", "", "", ""); return err }},
	}
	covered := map[string]bool{}
	for _, c := range calls {
		covered[c.kind] = true
	}
	if len(covered) != len(recordKinds) {
		t.Fatalf("rows cover %d record kinds, the taxonomy has %d", len(covered), len(recordKinds))
	}
	for _, c := range calls {
		t.Run(c.kind, func(t *testing.T) {
			t.Parallel() // closing three Task Managers takes a second and a half
			dir := t.TempDir()
			boot := func() *Service {
				as := auth.NewService(time.Hour)
				as.RegisterProvider("local")
				w, err := store.Open(store.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				s := New(Config{Registry: container.NewRegistry(), Store: w, Auth: as, AutoscaleInterval: time.Hour, TaskRetention: -1})
				t.Cleanup(func() { s.Close(); w.Close() })
				if _, err := s.Recover(); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := boot()
			failSites(t, s, "tm-1", "tm-2")
			if _, err := s.Publish(ctx, Anonymous, servable.NoopPackage()); err != nil {
				t.Fatal(err)
			}
			if err := s.DeployTo(ctx, Anonymous, id, 1, "parsl", "tm-1"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.DrainTM(ctx, "tm-2"); err != nil {
				t.Fatal(err)
			}
			// The fingerprint, and the document: a fingerprint does not
			// show the metadata an edit changes.
			state := func(s *Service) string {
				doc, _ := s.repo.latest(id)
				j, _ := json.Marshal(doc)
				return s.StateFingerprint() + string(j) + "\n"
			}
			want := state(s)

			s.cfg.Store.Close()
			if err := c.call(s); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("got %v, want unavailable", err)
			}
			if got := state(s); got != want {
				t.Fatalf("a failed commit changed state\n--- before\n%s--- after\n%s", want, got)
			}
			if got := state(boot()); got != want {
				t.Fatalf("recovered state differs\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestCommitUnencodablePayload: a payload json.Marshal refuses is an
// internal error that applies nothing and writes nothing.
func TestCommitUnencodablePayload(t *testing.T) {
	s := walService(t, store.Options{Dir: t.TempDir()})
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	applied := false
	err := s.commit(recKindTenant, func() (any, error) {
		return recTenantQuota{ID: "acme", Quota: auth.Quota{RatePerSec: math.NaN()}}, nil
	}, func() { applied = true })
	if !errors.Is(err, ErrInternal) || applied {
		t.Fatalf("commit = %v, applied %v; want internal and nothing applied", err, applied)
	}
	if st := s.WALStats(); st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("an unencodable record reached the log: %+v", st)
	}
}

// BenchmarkCommitMetadata is the durable half of a PATCH: the metadata
// edit checked, its record encoded and appended to a log that does not
// fsync, and the edited document applied.
func BenchmarkCommitMetadata(b *testing.B) {
	benchCommitMetadata(b, store.Options{Dir: b.TempDir()}, false)
}

// BenchmarkCommitMetadataSync is BenchmarkCommitMetadata on the write path
// dlhub-server ships (-wal-sync=true, one fsync per record), from
// GOMAXPROCS goroutines at once.
func BenchmarkCommitMetadataSync(b *testing.B) {
	benchCommitMetadata(b, store.Options{Dir: b.TempDir(), Sync: true}, true)
}

func benchCommitMetadata(b *testing.B, opts store.Options, parallel bool) {
	s := walService(b, opts)
	if _, err := s.Recover(); err != nil {
		b.Fatal(err)
	}
	id, err := s.Publish(context.Background(), Anonymous, servable.NoopPackage())
	if err != nil {
		b.Fatal(err)
	}
	edit := func(p *schema.Publication) { p.Title = "edited" }
	b.ReportAllocs()
	b.ResetTimer()
	if !parallel {
		for i := 0; i < b.N; i++ {
			if err := s.UpdateMetadata(Anonymous, id, edit); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.UpdateMetadata(Anonymous, id, edit); err != nil {
				b.Error(err)
				return
			}
		}
	})
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
