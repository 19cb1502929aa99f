package core

import (
	"context"
	"time"
)

// ReservationsEmpty reports whether the two-level (tenant × servable)
// admission reservation table is fully drained — every reserve was
// matched by exactly one unreserve. Test-only visibility for the
// quota storm test.
func (s *Service) ReservationsEmpty() bool { return s.route.reservationsEmpty() }

func (rt *routingTable) reservationsEmpty() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, sv := range rt.servables {
		if sv.reserved != 0 {
			return false
		}
	}
	for _, t := range rt.tenants {
		if t.reserved != 0 {
			return false
		}
	}
	return true
}

// In-process probes the external tests use where the product reads the
// same state over HTTP (GET /api/v2/tms, "async": true).

func (s *Service) TMLoad() map[string]int { return s.route.snapshotTMs().load }

func (s *Service) DrainingTMs() []string { return s.route.snapshotTMs().draining }

// MarkDraining applies a drain record without DrainTM's wait and
// migration pass: the state a service recovers mid-drain.
func (s *Service) MarkDraining(tmID string) { s.applyDrain(recTM{TM: tmID}) }

func (s *Service) RunAsync(ctx context.Context, caller Caller, servableID string, input any, opts RunOptions) (string, error) {
	raw, err := encodeInput(input)
	if err != nil {
		return "", err
	}
	return s.runAsync(ctx, caller, servableID, raw, opts)
}

// SetIdempotencyCap bounds the idempotency key table at n keys, and
// SetIdempotencyClock replaces its clock; both before the first request.
func (s *Service) SetIdempotencyCap(n int) { s.idem.max = n }

func (s *Service) SetIdempotencyClock(now func() time.Time) { s.idem.now = now }
