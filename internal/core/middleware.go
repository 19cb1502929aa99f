package core

import (
	"context"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// HTTP middleware: every request gets a request ID (minted or
// propagated), per-route counters, optional access logging, and panic
// containment. The chain wraps the whole mux, so unmatched paths are
// counted and logged too.

// RequestIDHeader carries the request correlation ID in both
// directions: clients may supply one, responses always echo it, and the
// v2 envelope repeats it in request_id.
const RequestIDHeader = "X-Request-ID"

type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyTenant
)

// RequestIDFromContext returns the request's correlation ID ("" outside
// a request).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// tenantHolder carries the resolved tenant tag outward to the access-log
// middleware: the holder is installed before routing, and the handler's
// caller resolution stamps it once the identity is known.
type tenantHolder struct{ tag string }

// stampTenant records the request's resolved tenant for the access log.
// A no-op when logging is off (no holder installed) or the tag is empty.
func stampTenant(ctx context.Context, tenant string) {
	if h, ok := ctx.Value(ctxKeyTenant).(*tenantHolder); ok && tenant != "" {
		h.tag = tenant
	}
}

// middleware assembles the chain: request-ID → access log → per-route
// metrics → panic recovery → mux.
func (s *Service) middleware(next http.Handler) http.Handler {
	return s.withRequestID(s.withAccessLog(s.withRouteMetrics(s.withRecovery(next))))
}

// statusWriter records the response status for logs and metrics while
// passing http.Flusher through — SSE streams flush through the chain.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Service) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > 64 {
			id = queue.NewID()[:16]
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID, id)))
	})
}

func (s *Service) withAccessLog(next http.Handler) http.Handler {
	if !s.cfg.LogRequests {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		hold := &tenantHolder{}
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyTenant, hold))
		next.ServeHTTP(sw, r)
		// The tenant field appears only when a tenant resolved, so
		// anonymous traffic logs the exact pre-tenancy line.
		tenant := ""
		if hold.tag != "" {
			tenant = " tenant=" + hold.tag
		}
		log.Printf("http %s %s -> %d (%s) rid=%s%s",
			r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond),
			RequestIDFromContext(r.Context()), tenant)
	})
}

// RouteStat is a snapshot of one route pattern's counters.
type RouteStat struct {
	Requests    uint64 `json:"requests"`
	Errors      uint64 `json:"errors"` // responses with status >= 400
	TotalMicros int64  `json:"total_us"`
}

type routeStat struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalUS  atomic.Int64
}

func (s *Service) withRouteMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		// The mux pattern ("POST /api/v2/.../run") keys the counter so
		// path parameters do not explode cardinality; unmatched
		// requests aggregate under the method alone.
		route := r.Pattern
		if route == "" {
			route = r.Method + " (unmatched)"
		}
		st := s.routeStat(route)
		st.requests.Add(1)
		if sw.status >= 400 {
			st.errors.Add(1)
		}
		st.totalUS.Add(time.Since(start).Microseconds())
	})
}

func (s *Service) routeStat(route string) *routeStat {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if s.routeStats == nil {
		s.routeStats = make(map[string]*routeStat)
	}
	st, ok := s.routeStats[route]
	if !ok {
		st = &routeStat{}
		s.routeStats[route] = st
	}
	return st
}

// RouteStats snapshots the per-route request counters, keyed by mux
// pattern, exposed at GET /api/v2/stats.
func (s *Service) RouteStats() map[string]RouteStat {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	out := make(map[string]RouteStat, len(s.routeStats))
	for route, st := range s.routeStats {
		out[route] = RouteStat{
			Requests:    st.requests.Load(),
			Errors:      st.errors.Load(),
			TotalMicros: st.totalUS.Load(),
		}
	}
	return out
}

func (s *Service) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("http panic on %s %s: %v (rid=%s)", r.Method, r.URL.Path, rec, RequestIDFromContext(r.Context()))
				if sw.status == 0 {
					writeV2Error(sw, r, ErrInternal)
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
