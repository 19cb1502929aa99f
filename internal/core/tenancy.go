package core

// Tenancy: the service-side half of multi-tenant QoS. Each tenant is ONE
// record in the routing table (routing.go) — its quota spec, its
// reservations, its rate-limit token bucket and its admission counters —
// and the identity→tenant bindings sit beside those records under the
// same lock, so resolving a caller's tenant is one read and admission
// is one critical section. This file owns the admission gate that
// enforces the quota (admitRun) and the admin surface (SetTenantQuota,
// BindTenant, TenantList, TenantStats) the HTTP layer and CLI wrap;
// dequeue fairness lives in the broker's weighted lanes
// (internal/queue).
//
// Quotas are durable policy: every SetTenantQuota and BindTenant is
// committed through the durability seam (durable.go) and the listed
// tenants and bindings are folded into checkpoints, so a -data-dir
// server restarts with the quotas, priorities, and identity bindings it
// crashed with. A tag only admission has seen is a stat: counted in
// /api/v2/stats, never listed or checkpointed. The enforcement state —
// token buckets, admission counters — is runtime and rebuilt from zero.

import (
	"cmp"
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

// admitRun is the admission-control gate for synchronous runs. Two
// independent bounds are enforced, with distinct rejections so a
// client can tell "you are over budget" from "the servable is busy":
//
//   - the servable's resolved MaxQueue bound → ErrOverloaded, which
//     is also counted in the servable's autoscale status (rejected);
//   - the caller's tenant quota (MaxInFlight across all servables,
//     plus the RatePerSec token bucket) → ErrQuotaExceeded, which
//     deliberately does NOT drive the autoscaler — a tenant over its
//     own budget is not servable pressure to scale for.
//
// Admission is check-AND-reserve in one rt.mu section (reserve): the
// bound, the reservation or the refusal's counts, the rate bucket
// included — a simultaneous burst cannot all
// slip past any bound the way a read-then-dispatch check would allow,
// and a request one bound refuses spends no token.
// Every admitted request holds its reservation (weight units
// for batches) from admission until completion; the caller must
// give it back exactly once, with s.route.unreserve(caller.Tenant,
// servableID, weight). Cache hits and singleflight followers are never
// gated — they add no load.
func (s *Service) admitRun(caller Caller, servableID string, weight int) error {
	tenant := caller.Tenant
	pending, bound, rate, verdict := s.route.reserve(tenant, servableID, weight)
	switch verdict {
	case admitOverloaded:
		return ErrOverloaded.WithDetail(fmt.Sprintf("%s: %d requests pending (bound %d)", servableID, pending, bound))
	case admitQuota:
		return ErrQuotaExceeded.WithDetail(fmt.Sprintf("tenant %q: %d runs in flight (quota %d)", tenantLabel(tenant), pending, bound))
	case admitRate:
		return ErrQuotaExceeded.WithDetail(fmt.Sprintf("tenant %q over rate limit %g req/s", tenantLabel(tenant), rate))
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

// tenantView renders a listed tenant; q is nil for one a binding made,
// which inherits the open default.
func (s *Service) tenantView(id string, q *auth.Quota) TenantView {
	spec := cmp.Or(q, new(auth.Quota))
	return TenantView{
		ID:          id,
		Name:        id,
		Priority:    spec.Priority,
		MaxInFlight: spec.MaxInFlight,
		RatePerSec:  spec.RatePerSec,
		Weight:      auth.PriorityWeight(spec.Priority),
		Durable:     q != nil && s.cfg.Store != nil,
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
	return s.tenantView(tenantID, &q), nil
}

// BindTenant maps an identity URN onto a tenant for token resolution,
// durably. An unbound identity is already the anonymous tenant's, so
// that tenant cannot be bound to by name.
func (s *Service) BindTenant(identityID, tenantID string) error {
	if tenantID == "" || tenantID == auth.AnonymousTenantID {
		return ErrBadRequest.WithDetail("identities cannot be bound to the anonymous tenant explicitly")
	}
	rec := recTenantBind{IdentityID: identityID, TenantID: tenantID}
	return s.commit(recKindTenantBind, func() (any, error) { return rec, nil }, func() { s.applyTenantBind(rec) })
}

// TenantList returns every listed tenant's quota spec, sorted by ID.
func (s *Service) TenantList() []TenantView {
	specs := s.route.tenantSpecs()
	out := make([]TenantView, 0, len(specs))
	for _, id := range sortedKeys(specs) {
		out = append(out, s.tenantView(id, specs[id]))
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
