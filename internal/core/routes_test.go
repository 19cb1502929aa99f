package core_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/servable"
)

// TestAuthTenantAndVersionRoutes drives, in order, the account, tenant
// and version routes of an auth-required service through Handler(): an
// account registers, logs in and reads itself back, lists a servable's
// versions, sets and lists its tenant's quota, and revokes its token,
// after which the same bearer is refused.
func TestAuthTenantAndVersionRoutes(t *testing.T) {
	as := auth.NewService(time.Hour)
	as.RegisterProvider("local")
	as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		Auth:         as,
		RequireAuth:  true,
		AuthProvider: "local",
		AuthClientID: "dlhub",
		RunScope:     "dlhub:serve",
	})
	t.Cleanup(ms.Close)
	for i := 0; i < 2; i++ {
		if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(ms.Handler())
	t.Cleanup(srv.Close)

	var token string
	steps := []struct {
		method, path, body string
		bearer             bool   // send the token from login
		status             int    // expected status
		want               string // substring of the response body
	}{
		{"POST", "/api/v2/auth/register", `{"username":"alice","password":"pw","tenant":"acme"}`, false, http.StatusCreated, `"identity_id":"urn:`},
		{"POST", "/api/v2/auth/login", `{"username":"alice","password":"pw"}`, false, http.StatusOK, `"token_type":"Bearer"`},
		{"GET", "/api/v2/auth/whoami", "", true, http.StatusOK, `"tenant":"acme"`},
		{"GET", "/api/v2/servables/anonymous/noop/versions", "", true, http.StatusOK, `"total":2`},
		{"PUT", "/api/v2/tenants/acme/quota", `{"max_in_flight":2,"rate_per_sec":5,"priority":"high"}`, true, http.StatusOK, `"max_in_flight":2`},
		{"GET", "/api/v2/tenants", "", true, http.StatusOK, `"priority":"high"`},
		{"POST", "/api/v2/auth/revoke", `{}`, true, http.StatusOK, `"revoked"`},
		{"GET", "/api/v2/auth/whoami", "", true, http.StatusUnauthorized, `"unauthorized"`},
	}
	for _, st := range steps {
		req, err := http.NewRequest(st.method, srv.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		if st.bearer {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != st.status || !strings.Contains(string(body), st.want) {
			t.Fatalf("%s %s: %d %s, want %d with %s", st.method, st.path, resp.StatusCode, body, st.status, st.want)
		}
		if st.path == "/api/v2/auth/login" {
			var env struct {
				Data core.LoginResult `json:"data"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Data.AccessToken == "" {
				t.Fatalf("login answered no token: %s (%v)", body, err)
			}
			token = env.Data.AccessToken
		}
	}
}
