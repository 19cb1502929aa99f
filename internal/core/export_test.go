package core

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
	return len(rt.tenants) == 0
}
