package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/servable"
)

// TestTenantLedgerExact drives admitRun through a script on a fake
// clock and pins the tenant ledger exactly: the bucket starts full,
// refills by elapsed × rate, caps at one second's burst, and reads the
// rate at each admission; a rate refusal and an in-flight refusal both
// count as rejected_quota, a MaxQueue refusal as rejected_overload (and
// only that feeds the autoscaler's rejection count); the anonymous
// tenant is never limited; and a request a bound refuses spends no
// token.
func TestTenantLedgerExact(t *testing.T) {
	// No background loop may read the clock while the test moves it: the
	// autoscaler never ticks, the task sweeper is off, no TM registers.
	s := New(Config{Registry: container.NewRegistry(), MaxQueue: 1, AutoscaleInterval: time.Hour, TaskRetention: -1})
	defer s.Close()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	s.timeFunc = func() time.Time { return now }
	acme := Caller{IdentityID: "urn:identity:local:a", Tenant: "acme"}

	steps := []struct {
		name    string
		advance time.Duration
		quota   *auth.Quota // installed before the admission
		caller  Caller
		sv      string
		hold    bool  // keep the reservation to the end of the script
		want    error // nil = admitted
	}{
		{name: "bucket starts full (1 of 2)", quota: &auth.Quota{RatePerSec: 2}, caller: acme, sv: "a"},
		{name: "bucket starts full (2 of 2)", caller: acme, sv: "a"},
		{name: "empty bucket", caller: acme, sv: "a", want: ErrQuotaExceeded},
		{name: "half a token is not a token", advance: 250 * time.Millisecond, caller: acme, sv: "a", want: ErrQuotaExceeded},
		{name: "elapsed × rate refills", advance: 250 * time.Millisecond, caller: acme, sv: "a"},
		{name: "a long idle caps at one second's burst (1 of 2)", advance: 10 * time.Second, caller: acme, sv: "a"},
		{name: "a long idle caps at one second's burst (2 of 2)", caller: acme, sv: "a"},
		{name: "no third token after the idle", caller: acme, sv: "a", want: ErrQuotaExceeded},
		// 500 ms at the NEW rate is two tokens; at the old one it is one.
		{name: "rate change applies at the next admission (1 of 2)", advance: 500 * time.Millisecond, quota: &auth.Quota{RatePerSec: 4}, caller: acme, sv: "a"},
		{name: "rate change applies at the next admission (2 of 2)", caller: acme, sv: "a"},
		{name: "and no further", caller: acme, sv: "a", want: ErrQuotaExceeded},
		{name: "in-flight quota: first holds", quota: &auth.Quota{MaxInFlight: 1}, caller: acme, sv: "a", hold: true},
		{name: "in-flight quota: second refused", caller: acme, sv: "b", want: ErrQuotaExceeded},
		{name: "servable bound is checked before the tenant's", caller: acme, sv: "a", want: ErrOverloaded},
		{name: "anonymous meets the servable bound too", caller: Anonymous, sv: "a", want: ErrOverloaded},
		{name: "anonymous carries no quota (1)", caller: Anonymous, sv: "b"},
		{name: "anonymous carries no quota (2)", caller: Anonymous, sv: "b"},
		{name: "anonymous carries no quota (3)", caller: Anonymous, sv: "b"},
		// Two tokens: one admission, one bound refusal, one more admission.
		{name: "a refusal spends no token: one holds", advance: time.Second, quota: &auth.Quota{RatePerSec: 2}, caller: acme, sv: "c", hold: true},
		{name: "a refusal spends no token: the bound refuses the next", caller: acme, sv: "c", want: ErrOverloaded},
		{name: "a refusal spends no token: the second token admits", caller: acme, sv: "d"},
	}
	type reservation struct{ tenant, sv string }
	var held []reservation
	for _, st := range steps {
		now = now.Add(st.advance)
		if st.quota != nil {
			if _, err := s.SetTenantQuota("acme", *st.quota); err != nil {
				t.Fatal(err)
			}
		}
		err := s.admitRun(st.caller, st.sv, 1)
		if !errors.Is(err, st.want) { // errors.Is(err, nil) is err == nil
			t.Fatalf("%s: got %v, want %v", st.name, err, st.want)
		}
		switch {
		case err != nil:
		case st.hold:
			held = append(held, reservation{st.caller.Tenant, st.sv})
		default:
			s.route.unreserve(st.caller.Tenant, st.sv, 1)
		}
	}

	stats := s.TenantStatsAll()
	if got, want := stats["acme"], (TenantStats{Admitted: 10, RejectedQuota: 5, RejectedOverload: 2, InFlight: 2}); got != want {
		t.Fatalf("acme: got %+v, want %+v", got, want)
	}
	if got, want := stats["anonymous"], (TenantStats{Admitted: 3, RejectedOverload: 1}); got != want {
		t.Fatalf("anonymous: got %+v, want %+v", got, want)
	}
	if st, _ := s.route.autoscaleStatus("a"); st.Rejected != 2 {
		t.Fatalf("autoscaler saw %d rejections on a, want the 2 overloads and no quota refusal", st.Rejected)
	}
	if st, ok := s.route.autoscaleStatus("b"); ok && st.Rejected != 0 {
		t.Fatalf("a quota refusal fed the autoscaler: %+v", st)
	}
	for _, r := range held {
		s.route.unreserve(r.tenant, r.sv, 1)
	}
	if !s.route.reservationsEmpty() {
		t.Fatal("reservations did not drain to zero")
	}
}

// serveTagged sends one request through the service's handler, tagged
// with tenant by the open-mode header when it is not empty.
func serveTagged(s *Service, method, path, tenant, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// tenantStatsOverHTTP reads the tenants block of GET /api/v2/stats.
func tenantStatsOverHTTP(t *testing.T, s *Service) map[string]TenantStats {
	t.Helper()
	var env struct {
		Data struct {
			Tenants map[string]TenantStats `json:"tenants"`
		} `json:"data"`
	}
	rec := serveTagged(s, http.MethodGet, "/api/v2/stats", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /api/v2/stats: %d %q: %v", rec.Code, rec.Body, err)
	}
	return env.Data.Tenants
}

// TestAnonymousTenantHasOneSpelling: the anonymous tenant's name, sent
// in the open-mode header, is the anonymous tenant — one stats entry,
// one lane — and no identity can be bound to it under either spelling,
// so no tenant with an empty ID is ever listed.
func TestAnonymousTenantHasOneSpelling(t *testing.T) {
	s := New(Config{Registry: container.NewRegistry(), AutoscaleInterval: time.Hour, TaskRetention: -1})
	defer s.Close()
	id, err := s.Publish(context.Background(), Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{auth.AnonymousTenantID, ""} {
		// No Task Manager is registered: the run is admitted, then fails.
		if rec := serveTagged(s, http.MethodPost, "/api/v2/servables/"+id+"/run", tenant, `{"input":"hi"}`); rec.Code == http.StatusOK {
			t.Fatalf("run tagged %q answered %d with no Task Manager", tenant, rec.Code)
		}
	}
	stats := tenantStatsOverHTTP(t, s)
	if got := stats[auth.AnonymousTenantID]; got.Admitted != 2 || len(stats) != 1 {
		t.Fatalf("stats tenants = %+v, want the two admissions under anonymous alone", stats)
	}

	for _, tenant := range []string{"", auth.AnonymousTenantID} {
		if err := s.BindTenant("urn:identity:local:bob", tenant); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("BindTenant to %q: %v, want bad_request", tenant, err)
		}
	}
	if views := s.TenantList(); len(views) != 0 {
		t.Fatalf("TenantList = %+v, want no tenant", views)
	}
}
