package core

import (
	"errors"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/servable"
	"repro/internal/store"
)

// TestTenantStateInRoutingRecord pins the one record per tenant: the
// quota a SetTenantQuota installs is the one reserve enforces, a bind
// lists its tenant with no quota, a tag only admission has seen is a
// stat — counted, never listed or checkpointed — and a checkpoint
// brings back the listed tenants and the bindings exactly, which a
// token then resolves through.
func TestTenantStateInRoutingRecord(t *testing.T) {
	opts := store.Options{Dir: t.TempDir()}
	a := walService(t, opts)
	if _, err := a.Recover(); err != nil {
		t.Fatal(err)
	}

	// The quota set is the quota enforced, and a new one applies at the
	// next admission.
	if _, err := a.SetTenantQuota("acme", auth.Quota{MaxInFlight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, v := a.route.reserve("acme", "sv", 1); v != admitOK {
		t.Fatalf("first acme reservation: verdict %v", v)
	}
	if pending, bound, _, v := a.route.reserve("acme", "sv", 1); v != admitQuota || pending != 1 || bound != 1 {
		t.Fatalf("second acme reservation: %d/%d, verdict %v; want refused at 1 of quota 1", pending, bound, v)
	}
	acme := auth.Quota{MaxInFlight: 2, RatePerSec: 5, Priority: auth.PriorityHigh}
	if _, err := a.SetTenantQuota("acme", acme); err != nil {
		t.Fatal(err)
	}
	if _, _, _, v := a.route.reserve("acme", "sv", 1); v != admitOK {
		t.Fatalf("acme reservation under quota %+v: verdict %v", acme, v)
	}
	if pending, bound, _, v := a.route.reserve("acme", "sv", 1); v != admitQuota || pending != 2 || bound != 2 {
		t.Fatalf("third acme reservation: %d/%d, verdict %v; want refused at 2 of quota 2", pending, bound, v)
	}
	a.route.unreserve("acme", "sv", 1)
	a.route.unreserve("acme", "sv", 1)

	// A bind lists its tenant with no quota; the quota stays durable.
	if err := a.BindTenant("urn:identity:local:bob", "beta"); err != nil {
		t.Fatal(err)
	}
	want := []TenantView{
		{ID: "acme", Name: "acme", Priority: auth.PriorityHigh, MaxInFlight: 2, RatePerSec: 5, Weight: 4, Durable: true},
		{ID: "beta", Name: "beta", Weight: 2},
	}
	listed := func(s *Service) {
		t.Helper()
		if got := s.TenantList(); !slices.Equal(got, want) {
			t.Fatalf("TenantList = %+v, want %+v", got, want)
		}
	}
	listed(a)

	// A tag seen only through the open-mode header is counted, and that
	// is all.
	id, err := a.Publish(t.Context(), Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveTagged(a, http.MethodPost, "/api/v2/servables/"+id+"/run", "ghost", `{"input":"hi"}`); rec.Code == http.StatusOK {
		t.Fatalf("run answered %d with no Task Manager", rec.Code)
	}
	if got := tenantStatsOverHTTP(t, a)["ghost"]; got.Admitted != 1 {
		t.Fatalf("stats for ghost = %+v, want 1 admission", got)
	}
	listed(a)

	live := a.StateFingerprint()
	for _, line := range []string{
		"tenant acme prio=high mif=2 rate=5 quota=true\n",
		"tenant beta prio= mif=0 rate=0 quota=false\n",
		"binding urn:identity:local:bob -> beta\n",
	} {
		if !strings.Contains(live, line) {
			t.Fatalf("fingerprint lacks %q:\n%s", line, live)
		}
	}
	if n := strings.Count(live, "\ntenant "); n != 2 {
		t.Fatalf("fingerprint has %d tenant lines, want 2:\n%s", n, live)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a.cfg.Store.Close()

	// Recovered with authentication on: the same state, the same list,
	// no trace of the stat-only tag, and bob's token resolves to beta.
	w, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	as := auth.NewService(time.Hour)
	as.RegisterProvider("local")
	as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
	b := New(Config{Registry: container.NewRegistry(), Store: w, Auth: as, RunScope: "dlhub:serve", AuthClientID: "dlhub",
		AutoscaleInterval: time.Hour, TaskRetention: -1})
	defer func() { b.Close(); w.Close() }()
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
	listed(b)
	if _, ok := b.TenantStatsAll()["ghost"]; ok {
		t.Fatal("the stat-only tag came back from the checkpoint")
	}
	if _, err := b.RegisterUser("local", "bob", "pw", "", "", ""); err != nil {
		t.Fatal(err)
	}
	res, err := b.Login("local", "bob", "pw")
	if err != nil {
		t.Fatal(err)
	}
	caller, err := b.ResolveCaller("Bearer " + res.AccessToken)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "beta" || caller.Tenant != "beta" {
		t.Fatalf("bob logs in to tenant %q and resolves to %q, want beta", res.Tenant, caller.Tenant)
	}
	if err := b.admitRun(caller, "sv", 1); err != nil {
		t.Fatal(err)
	}
	if st := b.TenantStatsAll()["beta"]; st.Admitted != 1 || st.InFlight != 1 {
		t.Fatalf("beta after one admission: %+v", st)
	}
	b.route.unreserve(caller.Tenant, "sv", 1)
	if !errors.Is(b.BindTenant("urn:identity:local:bob", ""), ErrBadRequest) {
		t.Fatal("bob was bound to the anonymous tenant")
	}
}
