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
// request ID echoed (a supplied one kept; one that is oversized or holds
// anything outside [A-Za-z0-9._:-] replaced by a minted one in the
// header, the envelope and the log line alike, so no client can forge a
// log field or break the envelope), the access-log line with the tenant
// only when one resolved, and a handler panic contained as the 500
// envelope, logged ahead of its access line and counted as an error under
// its route.
func TestDoorTail(t *testing.T) {
	const mintedLine = `^http GET /api/v2/healthz -> 200 \([^)]+\) rid=[0-9a-f]{16}\n$`
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
		minted                  bool // rid must not be propagated
		status                  int
		lines                   string // regexp over what the request logged
	}{
		{name: "anonymous", path: "/api/v2/cache/stats", rid: "rid-1", status: 200,
			lines: `^http GET /api/v2/cache/stats -> 200 \([^)]+\) rid=rid-1\n$`},
		{name: "tenant", path: "/api/v2/cache/stats", rid: "rid-2", tenant: "acme", status: 200,
			lines: `^http GET /api/v2/cache/stats -> 200 \([^)]+\) rid=rid-2 tenant=acme\n$`},
		{name: "client id", path: "/api/v2/healthz", rid: "client-rid-1", status: 200,
			lines: `^http GET /api/v2/healthz -> 200 \([^)]+\) rid=client-rid-1\n$`},
		{name: "every allowed character", path: "/api/v2/healthz", rid: "Az09._:-", status: 200,
			lines: `^http GET /api/v2/healthz -> 200 \([^)]+\) rid=Az09\._:-\n$`},
		{name: "oversized id", path: "/api/v2/healthz", rid: strings.Repeat("x", 65), minted: true, status: 200, lines: mintedLine},
		{name: "space forging a log field", path: "/api/v2/healthz", rid: "x tenant=admin", minted: true, status: 200, lines: mintedLine},
		{name: "quote", path: "/api/v2/healthz", rid: `a"b`, minted: true, status: 200, lines: mintedLine},
		{name: "backslash", path: "/api/v2/healthz", rid: `a\b`, minted: true, status: 200, lines: mintedLine},
		{name: "control byte", path: "/api/v2/healthz", rid: "a\x01b", minted: true, status: 200, lines: mintedLine},
		{name: "newline", path: "/api/v2/healthz", rid: "a\nhttp GET /forged -> 200", minted: true, status: 200, lines: mintedLine},
		{name: "no id", path: "/api/v2/healthz", rid: "", minted: true, status: 200, lines: mintedLine},
		{name: "panic", path: "/boom", rid: "rid-3", status: 500,
			lines: `^http panic on GET /boom: kaboom \(rid=rid-3\)\nhttp GET /boom -> 500 \([^)]+\) rid=rid-3\n$`},
	} {
		logs.Reset()
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.rid != "" {
			req.Header.Set(RequestIDHeader, tc.rid)
		}
		req.Header.Set(TenantHeader, tc.tenant)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		var env Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body %q: %v", tc.name, rec.Body, err)
		}
		echo := rec.Header().Get(RequestIDHeader)
		want := "^" + regexp.QuoteMeta(tc.rid) + "$"
		if tc.minted {
			want = `^[0-9a-f]{16}$`
		}
		if rec.Code != tc.status || env.RequestID != echo || !regexp.MustCompile(want).MatchString(echo) {
			t.Errorf("%s: status %d, header id %q, envelope id %q, want %s", tc.name, rec.Code, echo, env.RequestID, want)
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
