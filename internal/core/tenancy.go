package core

// Tenancy: the service-side half of multi-tenant QoS. The tenant
// registry (internal/auth.TenantRegistry) holds who maps to which
// tenant and each tenant's quota spec; this file owns the admission
// gate that enforces it (admitRun) and the admin surface
// (SetTenantQuota, TenantList, TenantStats) the HTTP layer and CLI
// wrap. The enforcement state — one record per tenant holding its
// reservations, rate-limit token bucket and admission counters — lives
// in the routing table beside the per-servable reservations
// (routing.go), so admission is one critical section; dequeue fairness
// lives in the broker's weighted lanes (internal/queue).
//
// Quotas are durable policy: every SetTenantQuota and BindTenant is
// committed through the durability seam (durable.go) and the registry is
// folded into checkpoints, so a -data-dir server restarts with the
// quotas, priorities, and identity bindings it crashed with. Only the
// enforcement state here — token buckets, admission counters — is
// runtime and rebuilt from zero.

import (
	"fmt"
	"math"

	"repro/internal/auth"
)

// tenantLabel renders a data-plane tenant tag for humans: the empty
// tag is the anonymous tenant.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return auth.AnonymousTenantID
	}
	return tenant
}

// tenantQuota resolves the quota spec enforced for a tenant tag; the
// zero Quota limits nothing. The anonymous tenant ("") is never
// limited.
func (s *Service) tenantQuota(tenant string) auth.Quota {
	if tenant == "" {
		return auth.Quota{}
	}
	t, _ := s.tenants.Get(tenant)
	return t.Quota
}

// admitRun is the admission-control gate for synchronous runs. Two
// independent bounds are enforced, with distinct rejections so a
// client can tell "you are over budget" from "the servable is busy":
//
//   - the servable's resolved MaxQueue bound → ErrOverloaded, which
//     also feeds the autoscaler's rejection signal;
//   - the caller's tenant quota (MaxInFlight across all servables,
//     plus the RatePerSec token bucket) → ErrQuotaExceeded, which
//     deliberately does NOT drive the autoscaler — a tenant over its
//     own budget is not servable pressure to scale for.
//
// Admission is check-AND-reserve under one lock in the routing table
// (reserve), the rate bucket included — a simultaneous burst cannot all
// slip past any bound the way a read-then-dispatch check would allow,
// and a request one bound refuses spends no token.
// Every admitted request holds its reservation (weight units
// for batches) from admission until completion; the caller must
// give it back exactly once, with s.route.unreserve(caller.Tenant,
// servableID, weight). Cache hits and singleflight followers are never
// gated — they add no load.
func (s *Service) admitRun(caller Caller, servableID string, weight int) error {
	tenant := caller.Tenant
	quota := s.tenantQuota(tenant)
	svBound := s.scaler.maxQueue(servableID)
	pending, verdict := s.route.reserve(tenant, servableID, weight, svBound, quota)
	switch verdict {
	case admitOverloaded:
		s.scaler.noteRejection(servableID)
		return ErrOverloaded.WithDetail(fmt.Sprintf("%s: %d requests pending (bound %d)", servableID, pending, svBound))
	case admitQuota:
		return ErrQuotaExceeded.WithDetail(fmt.Sprintf("tenant %q: %d runs in flight (quota %d)", tenantLabel(tenant), pending, quota.MaxInFlight))
	case admitRate:
		return ErrQuotaExceeded.WithDetail(fmt.Sprintf("tenant %q over rate limit %g req/s", tenantLabel(tenant), quota.RatePerSec))
	}
	return nil
}

// --- admin surface -----------------------------------------------------------

// TenantView is the wire shape of a tenant record (quota spec).
type TenantView struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	Priority    string  `json:"priority,omitempty"`
	MaxInFlight int     `json:"max_in_flight,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Weight      int     `json:"weight"`
	// Durable reports the quota is WAL-backed: explicitly set AND the
	// server runs with a durable store, so it survives a restart. False
	// for bind-created records inheriting the open default, and for
	// every tenant on a store-less server.
	Durable bool `json:"durable"`
}

func (s *Service) tenantView(t auth.Tenant) TenantView {
	return TenantView{
		ID:          t.ID,
		Name:        t.Name,
		Priority:    t.Quota.Priority,
		MaxInFlight: t.Quota.MaxInFlight,
		RatePerSec:  t.Quota.RatePerSec,
		Weight:      auth.PriorityWeight(t.Quota.Priority),
		Durable:     t.HasQuota && s.cfg.Store != nil,
	}
}

// SetTenantQuota installs or replaces a tenant's quota spec and pushes
// the priority class's dequeue weight to the broker, so fairness and
// the next admission check both see the update immediately. The put is
// committed (durable.go), so it survives a restart.
func (s *Service) SetTenantQuota(tenantID string, q auth.Quota) (TenantView, error) {
	if tenantID == "" || tenantID == auth.AnonymousTenantID {
		return TenantView{}, ErrBadRequest.WithDetail("the anonymous tenant cannot carry a quota")
	}
	if !auth.ValidPriority(q.Priority) {
		return TenantView{}, ErrBadRequest.WithDetail(fmt.Sprintf("unknown priority class %q (want high|normal|low)", q.Priority))
	}
	if q.MaxInFlight < 0 || !(q.RatePerSec >= 0 && q.RatePerSec <= math.MaxFloat64) { // NaN fails both
		return TenantView{}, ErrBadRequest.WithDetail("quota bounds must be finite and >= 0 (0 = unlimited)")
	}
	rec := recTenantQuota{ID: tenantID, Quota: q}
	if err := s.commit(recKindTenant, func() (any, error) { return rec, nil }, func() { s.applyTenantQuota(rec) }); err != nil {
		return TenantView{}, err
	}
	t, _ := s.tenants.Get(tenantID)
	return s.tenantView(t), nil
}

// BindTenant maps an identity URN onto a tenant for token resolution,
// durably.
func (s *Service) BindTenant(identityID, tenantID string) error {
	rec := recTenantBind{IdentityID: identityID, TenantID: tenantID}
	return s.commit(recKindTenantBind, func() (any, error) { return rec, nil }, func() { s.applyTenantBind(rec) })
}

// TenantList returns every registered tenant's quota spec, sorted by
// ID.
func (s *Service) TenantList() []TenantView {
	ts := s.tenants.List()
	out := make([]TenantView, 0, len(ts))
	for _, t := range ts {
		out = append(out, s.tenantView(t))
	}
	return out
}

// TenantStats is one tenant's serving-path counters: admission
// outcomes, live in-flight reservations, and its share of broker
// dequeues (the fairness observable).
type TenantStats struct {
	Admitted         uint64  `json:"admitted"`
	RejectedQuota    uint64  `json:"rejected_quota"`
	RejectedOverload uint64  `json:"rejected_overload"`
	InFlight         int     `json:"in_flight"`
	Dequeued         uint64  `json:"dequeued"`
	DequeueShare     float64 `json:"dequeue_share"`
}

// TenantStatsAll merges the per-tenant observables of two sources — the
// routing table's admission counters and reservations, and the broker's
// lane dequeues — keyed by tenant (the anonymous lane under
// "anonymous").
func (s *Service) TenantStatsAll() map[string]TenantStats {
	out := s.route.tenantStats()
	deq := s.broker.LaneDequeues()
	var total uint64
	for _, n := range deq {
		total += n
	}
	for tag, n := range deq {
		st := out[tenantLabel(tag)]
		st.Dequeued = n
		if total > 0 {
			st.DequeueShare = float64(n) / float64(total)
		}
		out[tenantLabel(tag)] = st
	}
	return out
}
