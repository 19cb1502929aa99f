package auth

// Tenancy. The paper's service brokers authentication for many identity
// providers and shares models across user groups; a tenant is the
// accounting unit layered on top of that identity graph: the thing
// quotas, rate limits, and fair-share dequeue weights attach to.
// Identities map many-to-one onto tenants (a research group's members
// all bill to one tenant); identities with no mapping — including every
// unauthenticated caller — belong to the anonymous tenant, which has no
// quota, so the no-tenant serving path behaves exactly as before
// tenancy existed. The Management Service keeps the tenants and the
// bindings (internal/core/tenancy.go); this file is the vocabulary they
// share with its clients.

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
// keeps each tenant's quota and identity bindings in the tenant's
// record, logs every quota put and binding to its WAL and folds them
// into checkpoints, so a -data-dir server restarts with the same quotas
// it crashed with (internal/core/tenancy.go, durable.go).
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
