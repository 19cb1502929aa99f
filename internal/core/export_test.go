package core

import "context"

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

func (s *Service) RunAsync(ctx context.Context, caller Caller, servableID string, input any, opts RunOptions) (string, error) {
	raw, err := encodeInput(input)
	if err != nil {
		return "", err
	}
	return s.runAsync(ctx, caller, servableID, raw, opts)
}
