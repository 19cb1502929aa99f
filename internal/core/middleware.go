package core

import (
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/queue"
)

// The HTTP door: every request passes serveHTTP once, which gives it a
// request ID (minted or propagated), counts it under its route, logs it
// when access logging is on, and contains a handler panic. The door is
// in front of the mux, so unmatched paths are counted and logged too.

// RequestIDHeader carries the request correlation ID in both
// directions: clients may supply one, responses always echo it, and the
// v2 envelope repeats it in request_id.
const RequestIDHeader = "X-Request-ID"

// validRequestID reports whether a client-supplied ID may be propagated:
// 1–64 characters of [A-Za-z0-9._:-]. The ID is echoed into the access
// log, where a space would forge a field, and into the run route's
// hand-written envelope, where a quote would break it.
func validRequestID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("._:-", c) >= 0) {
			return false
		}
	}
	return 1 <= len(id) && len(id) <= 64
}

// requestScope is one request's record: the request ID, and the tenant
// callerV2 stamps once the identity is known. It is the ResponseWriter
// the handler writes to — so the status is seen once, for the counters,
// the log line and the panic tail alike — and that is also how a handler
// finds it: the request's context carries nothing of it.
type requestScope struct {
	http.ResponseWriter
	status int
	id     string
	idv    [1]string // the response header's value slice for id
	tenant string
}

// scopeOf returns the scope a handler's writer is (nil outside the door).
func scopeOf(w http.ResponseWriter) *requestScope {
	sc, _ := w.(*requestScope)
	return sc
}

// requestID returns the request's correlation ID ("" outside the door).
func requestID(w http.ResponseWriter) string {
	if sc := scopeOf(w); sc != nil {
		return sc.id
	}
	return ""
}

func (sc *requestScope) WriteHeader(status int) {
	if sc.status == 0 {
		sc.status = status
	}
	sc.ResponseWriter.WriteHeader(status)
}

func (sc *requestScope) Write(p []byte) (int, error) {
	if sc.status == 0 {
		sc.status = http.StatusOK
	}
	return sc.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does — SSE
// streams flush through the scope.
func (sc *requestScope) Flush() {
	if f, ok := sc.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
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

// door is the mux and one counter per key a request can be counted
// under. New mounts every route and nothing writes the table afterwards,
// so requests read it without a lock.
type door struct {
	mux   *http.ServeMux
	stats map[string]*routeStat
}

// otherUnmatched counts unmatched requests whose method is none of
// net/http's: a method is any token the client cares to invent, and the
// door runs before auth, so the key set must not grow with them.
const otherUnmatched = "OTHER (unmatched)"

func newDoor() *door {
	d := &door{mux: http.NewServeMux(), stats: map[string]*routeStat{otherUnmatched: {}}}
	for _, m := range []string{
		http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
	} {
		d.stats[m+" (unmatched)"] = &routeStat{}
	}
	return d
}

// HandleFunc mounts a route and creates its counter.
func (d *door) HandleFunc(pattern string, h http.HandlerFunc) {
	d.mux.HandleFunc(pattern, h)
	d.stats[pattern] = &routeStat{}
}

// stat returns the counter for a served request. The mux pattern ("POST
// /api/v2/.../run") keys it so path parameters do not explode
// cardinality; unmatched requests aggregate under the method alone.
func (d *door) stat(r *http.Request) *routeStat {
	if st := d.stats[r.Pattern]; st != nil {
		return st
	}
	if st := d.stats[r.Method+" (unmatched)"]; st != nil {
		return st
	}
	return d.stats[otherUnmatched]
}

// RouteStats snapshots the per-route request counters of every route
// that has served a request, keyed by mux pattern, exposed at GET
// /api/v2/stats.
func (s *Service) RouteStats() map[string]RouteStat {
	out := make(map[string]RouteStat)
	for route, st := range s.door.stats {
		if n := st.requests.Load(); n > 0 {
			out[route] = RouteStat{Requests: n, Errors: st.errors.Load(), TotalMicros: st.totalUS.Load()}
		}
	}
	return out
}

func (s *Service) serveHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := &requestScope{ResponseWriter: w, id: r.Header.Get(requestIDKey)}
	if !validRequestID(sc.id) {
		sc.id = queue.NewID()[:16]
	}
	sc.idv[0] = sc.id
	w.Header()[requestIDKey] = sc.idv[:]
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("http panic on %s %s: %v (rid=%s)", r.Method, r.URL.Path, rec, sc.id)
			if sc.status == 0 {
				writeV2Error(sc, ErrInternal)
			}
		}
		elapsed := time.Since(start)
		st := s.door.stat(r)
		st.requests.Add(1)
		if sc.status >= 400 {
			st.errors.Add(1)
		}
		st.totalUS.Add(elapsed.Microseconds())
		if s.cfg.LogRequests {
			// The tenant field appears only when a tenant resolved, so
			// anonymous traffic logs the exact pre-tenancy line.
			tenant := ""
			if sc.tenant != "" {
				tenant = " tenant=" + sc.tenant
			}
			log.Printf("http %s %s -> %d (%s) rid=%s%s",
				r.Method, r.URL.Path, sc.status, elapsed.Round(time.Microsecond), sc.id, tenant)
		}
	}()
	s.door.mux.ServeHTTP(sc, r)
}
