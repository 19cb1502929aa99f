package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/servable"
	"repro/internal/store"
)

// TestAutoscaleStateInRoutingRecord pins the one record per servable:
// its autoscale policy and rejection count live in the routing table's
// entry, so they must outlive the entry's counters returning to zero, go
// with its placements at unpublish, be counted for a servable that was
// never placed, and come back from a checkpoint exactly.
func TestAutoscaleStateInRoutingRecord(t *testing.T) {
	ctx := context.Background()
	publish := func(s *Service, name string) string {
		t.Helper()
		pkg := servable.NoopPackage()
		pkg.Doc.Publication.Name = name
		id, err := s.Publish(ctx, Anonymous, pkg)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	s := New(Config{Registry: container.NewRegistry(), MaxQueue: 1, AutoscaleInterval: time.Hour, TaskRetention: -1})
	defer s.Close()
	placed, bare := publish(s, "placed"), publish(s, "bare")
	policy := AutoscalePolicy{Enabled: true, MaxReplicas: 4, MaxQueue: 2}
	if err := s.SetAutoscalePolicy(Anonymous, placed, policy); err != nil {
		t.Fatal(err)
	}
	s.applyDeploy(recPlacement{ID: placed, TM: "tm-a", Replicas: 2})

	// Demand and reservations come and go; the policy stays. The policy's
	// bound (2), not Config.MaxQueue (1), refuses the third run.
	for range 2 {
		if err := s.admitRun(Anonymous, placed, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.admitRun(Anonymous, placed, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third run on %s: %v, want overloaded at the policy's bound", placed, err)
	}
	s.route.discharge(s.route.charge("tm-a", placed, 2, func(error) {}))
	s.route.unreserve(Anonymous.Tenant, placed, 1)
	s.route.unreserve(Anonymous.Tenant, placed, 1)
	s.applyUndeploy(recPlacement{ID: placed, TM: "tm-a"})
	s.applyScale(recPlacement{ID: placed, Replicas: 0})
	st, ok := s.route.autoscaleStatus(placed)
	if want := policy.withDefaults(); !ok || st.Policy != want || st.Rejected != 1 {
		t.Fatalf("%s after its counters returned to zero: %+v (state %v), want policy %+v and 1 rejection", placed, st, ok, want)
	}
	s.applyDeploy(recPlacement{ID: placed, TM: "tm-a", Replicas: 2})

	// A servable with no placement and no policy: Config.MaxQueue refuses
	// its second run, and the refusal is reported.
	if err := s.admitRun(Anonymous, bare, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.admitRun(Anonymous, bare, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second run on %s: %v, want overloaded at Config.MaxQueue", bare, err)
	}
	s.route.unreserve(Anonymous.Tenant, bare, 1)
	stats := s.AutoscalerStats()
	if got, want := stats[bare], (AutoscaleStatus{Rejected: 1}); got != want || len(stats) != 2 {
		t.Fatalf("AutoscalerStats = %+v, want %s at %+v beside %s", stats, bare, want, placed)
	}

	// Unpublish takes the policy and the rejection count with the
	// placements; nothing of either servable is left in the table.
	for _, id := range []string{placed, bare} {
		if err := s.Unpublish(Anonymous, id); err != nil {
			t.Fatal(err)
		}
		if st, ok := s.route.autoscaleStatus(id); ok || st != (AutoscaleStatus{}) {
			t.Fatalf("%s after unpublish: %+v (state %v)", id, st, ok)
		}
		if p := s.route.placementsOf(id); len(p) != 0 {
			t.Fatalf("%s after unpublish: placements %v", id, p)
		}
	}
	if stats := s.AutoscalerStats(); len(stats) != 0 {
		t.Fatalf("AutoscalerStats after unpublish = %+v", stats)
	}
	s.route.mu.Lock()
	left := len(s.route.servables)
	s.route.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d servable entries left after unpublish", left)
	}

	// A checkpoint and Recover reproduce every policy; an entry holding
	// only a rejection count is a stat and is not written. The policy
	// lines of StateFingerprint keep their format.
	opts := store.Options{Dir: t.TempDir()}
	a := walService(t, opts)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	a.route.maxQueue = 1
	up, off, counted := publish(a, "up"), publish(a, "off"), publish(a, "counted")
	if err := a.SetAutoscalePolicy(Anonymous, up, policy); err != nil {
		t.Fatal(err)
	}
	if err := a.SetAutoscalePolicy(Anonymous, off, AutoscalePolicy{MaxQueue: -1, Executor: "clipper"}); err != nil {
		t.Fatal(err)
	}
	if err := a.admitRun(Anonymous, counted, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.admitRun(Anonymous, counted, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatal(err)
	}
	a.route.unreserve(Anonymous.Tenant, counted, 1)
	live := a.StateFingerprint()
	for _, line := range []string{
		"policy anonymous/off {Enabled:false MinReplicas:1 MaxReplicas:32 TargetLoad:2 ScaleUpCooldown:1s ScaleDownCooldown:30s MaxQueue:-1 Executor:clipper}\n",
		"policy anonymous/up {Enabled:true MinReplicas:1 MaxReplicas:4 TargetLoad:2 ScaleUpCooldown:1s ScaleDownCooldown:30s MaxQueue:2 Executor:parsl}\n",
	} {
		if !strings.Contains(live, line) {
			t.Fatalf("fingerprint lacks %q:\n%s", line, live)
		}
	}
	if n := strings.Count(live, "\npolicy "); n != 2 {
		t.Fatalf("fingerprint has %d policy lines, want 2:\n%s", n, live)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.cfg.Store.Close()

	b := walService(t, opts)
	info, err := b.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("recovered %+v, want the checkpoint alone", info)
	}
	if got := b.StateFingerprint(); got != live {
		t.Fatalf("fingerprint after recovery\n--- want\n%s--- got\n%s", live, got)
	}
	for _, id := range []string{up, off} {
		want, _ := a.route.autoscaleStatus(id)
		if got, ok := b.route.autoscaleStatus(id); !ok || got.Policy != want.Policy {
			t.Fatalf("%s recovered policy %+v (state %v), want %+v", id, got.Policy, ok, want.Policy)
		}
	}
	if st, ok := b.route.autoscaleStatus(counted); ok {
		t.Fatalf("%s: a rejection count came back as state %+v", counted, st)
	}
}
