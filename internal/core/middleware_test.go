package core

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// TestDoorTail pins what one pass through the door leaves behind: the
// request ID echoed (a supplied one kept, an oversized one replaced), the
// access-log line with the tenant only when one resolved, and a handler
// panic contained as the 500 envelope, logged ahead of its access line
// and counted as an error under its route.
func TestDoorTail(t *testing.T) {
	s := New(Config{LogRequests: true})
	defer s.Close()
	s.door.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	var logs bytes.Buffer
	defer log.SetOutput(log.Writer())
	defer log.SetFlags(log.Flags())
	log.SetOutput(&logs)
	log.SetFlags(0)

	for _, tc := range []struct {
		name, path, rid, tenant string
		status                  int
		lines                   string // regexp over what the request logged
	}{
		{name: "anonymous", path: "/api/v2/cache/stats", rid: "rid-1", status: 200,
			lines: `^http GET /api/v2/cache/stats -> 200 \([^)]+\) rid=rid-1\n$`},
		{name: "tenant", path: "/api/v2/cache/stats", rid: "rid-2", tenant: "acme", status: 200,
			lines: `^http GET /api/v2/cache/stats -> 200 \([^)]+\) rid=rid-2 tenant=acme\n$`},
		{name: "oversized id", path: "/api/v2/healthz", rid: strings.Repeat("x", 65), status: 200,
			lines: `^http GET /api/v2/healthz -> 200 \([^)]+\) rid=[0-9a-f]{16}\n$`},
		{name: "panic", path: "/boom", rid: "rid-3", status: 500,
			lines: `^http panic on GET /boom: kaboom \(rid=rid-3\)\nhttp GET /boom -> 500 \([^)]+\) rid=rid-3\n$`},
	} {
		logs.Reset()
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		req.Header.Set(RequestIDHeader, tc.rid)
		req.Header.Set(TenantHeader, tc.tenant)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rec.Body, err)
		}
		echo := rec.Header().Get(RequestIDHeader)
		if rec.Code != tc.status || echo == "" || env.RequestID != echo || (len(tc.rid) <= 64 && echo != tc.rid) {
			t.Errorf("%s: status %d, header id %q, envelope id %q", tc.name, rec.Code, echo, env.RequestID)
		}
		if !regexp.MustCompile(tc.lines).MatchString(logs.String()) {
			t.Errorf("%s: logged %q, want %s", tc.name, logs.String(), tc.lines)
		}
		if tc.status == 500 && (env.Error == nil || env.Error.Code != string(CodeInternal)) {
			t.Errorf("%s: error envelope %+v, want code internal", tc.name, env.Error)
		}
	}
	if boom := s.RouteStats()["GET /boom"]; boom.Requests != 1 || boom.Errors != 1 {
		t.Errorf("panicking route counted %+v, want 1 request, 1 error", boom)
	}
}
