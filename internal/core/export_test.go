package core

import (
	"context"
	"time"

	"repro/internal/outcome"
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
func (s *Service) SetIdempotencyCap(n int) {
	s.idem = outcome.New[string, idemReply](idemTTL, n, 0)
}

func (s *Service) SetIdempotencyClock(now func() time.Time) { s.idem.Now = now }

// DecodeRunBody is the run route's one-pass body decode.
var DecodeRunBody = decodeRunBody

// ServableLoad reports the in-flight (dispatched, not yet answered)
// run/batch/pipeline work units of one servable — the autoscaler's
// demand signal.
func (s *Service) ServableLoad(servableID string) int { return s.route.servableLoad(servableID) }

func (rt *routingTable) servableLoad(servableID string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.servables[servableID].inflight
}

// DesiredReplicas reports the replica count last set by Deploy or Scale
// (0 when the servable was never deployed through this service).
func (s *Service) DesiredReplicas(servableID string) int { return s.route.replicasOf(servableID) }
