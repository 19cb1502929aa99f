package auth

import (
	"sort"
	"sync"
)

// Tenancy. The paper's service brokers authentication for many identity
// providers and shares models across user groups; a Tenant is the
// accounting unit layered on top of that identity graph: the thing
// quotas, rate limits, and fair-share dequeue weights attach to.
// Identities map many-to-one onto tenants (a research group's members
// all bill to one tenant); identities with no mapping — including every
// unauthenticated caller — belong to the anonymous tenant, which has no
// quota, so the no-tenant serving path behaves exactly as before
// tenancy existed.

// AnonymousTenantID names the catch-all tenant for unmapped and
// unauthenticated identities. On the data plane it is carried as the
// empty tag ("" — the broker's default lane, omitted from task
// records), and rendered under this name in stats.
const AnonymousTenantID = "anonymous"

// Priority classes for weighted-fair dequeue. The weight is the DRR
// quantum: per round-robin visit, a lane may dequeue weight messages
// before yielding to the next lane.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// PriorityWeight maps a priority class to its dequeue weight. Unknown
// or empty classes get the normal weight.
func PriorityWeight(class string) int {
	switch class {
	case PriorityHigh:
		return 4
	case PriorityLow:
		return 1
	default:
		return 2
	}
}

// ValidPriority reports whether class names a known priority class
// ("" is accepted and means normal).
func ValidPriority(class string) bool {
	switch class {
	case "", PriorityHigh, PriorityNormal, PriorityLow:
		return true
	}
	return false
}

// Quota bounds one tenant's use of the serving path. Zero values mean
// unlimited; a tenant with the zero Quota is admitted exactly like the
// pre-tenancy path.
//
// Quotas are durable policy, not runtime state: the Management Service
// logs every SetQuota (and identity binding) to its WAL and folds the
// registry into checkpoints, so a -data-dir server restarts with the
// same quotas it crashed with (internal/core/durable.go).
type Quota struct {
	// MaxInFlight caps the tenant's concurrent reserved runs across
	// all servables (0 = unlimited). Exceeding it is a quota_exceeded
	// rejection, distinct from the servable's overloaded bound.
	MaxInFlight int
	// RatePerSec is the sustained admission rate (token bucket with a
	// one-second burst; 0 = unlimited).
	RatePerSec float64
	// Priority selects the dequeue weight class: high|normal|low
	// ("" = normal).
	Priority string
}

// Tenant is a named quota holder.
type Tenant struct {
	ID    string
	Name  string
	Quota Quota
	// HasQuota distinguishes a tenant whose quota was explicitly set
	// (SetQuota — an operator decision worth persisting) from a record
	// auto-created by Bind that merely inherits the open default.
	HasQuota bool
}

// TenantRegistry maps identities to tenants and holds each tenant's
// quota spec. It is safe for concurrent use and deliberately stands
// apart from Service so the core can enforce quotas even when it runs
// without an auth service (open mode).
type TenantRegistry struct {
	mu         sync.RWMutex
	tenants    map[string]Tenant
	byIdentity map[string]string // identity URN → tenant ID
}

// NewTenantRegistry returns an empty registry.
func NewTenantRegistry() *TenantRegistry {
	return &TenantRegistry{
		tenants:    map[string]Tenant{},
		byIdentity: map[string]string{},
	}
}

// SetQuota creates or updates a tenant's quota spec and returns the
// resulting tenant record.
func (r *TenantRegistry) SetQuota(id string, q Quota) Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok {
		t = Tenant{ID: id, Name: id}
	}
	t.Quota = q
	t.HasQuota = true
	r.tenants[id] = t
	return t
}

// Snapshot copies the registry for a checkpoint: every tenant record
// (sorted by ID) and every identity→tenant binding.
func (r *TenantRegistry) Snapshot() ([]Tenant, map[string]string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ts := make([]Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	binds := make(map[string]string, len(r.byIdentity))
	for id, tid := range r.byIdentity {
		binds[id] = tid
	}
	return ts, binds
}

// Get returns the tenant record for id.
func (r *TenantRegistry) Get(id string) (Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// Bind maps an identity URN onto a tenant, creating the tenant record
// if it does not exist yet. An empty identityID only creates the record.
func (r *TenantRegistry) Bind(identityID, tenantID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[tenantID]; !ok {
		r.tenants[tenantID] = Tenant{ID: tenantID, Name: tenantID}
	}
	if identityID != "" {
		r.byIdentity[identityID] = tenantID
	}
}

// TenantOf resolves an identity to its tenant ID, or "" (anonymous)
// when unmapped.
func (r *TenantRegistry) TenantOf(identityID string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byIdentity[identityID]
}

// List returns every tenant record, sorted by ID.
func (r *TenantRegistry) List() []Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tenants exposes the service's tenant registry, creating it on first
// use.
func (s *Service) Tenants() *TenantRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants == nil {
		s.tenants = NewTenantRegistry()
	}
	return s.tenants
}
