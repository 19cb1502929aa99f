package core

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/auth"
)

// Durable identity and the token lifecycle over HTTP. The Management
// Service fronts the auth substrate (internal/auth) the way DLHub
// fronts Globus Auth: accounts are registered and tokens issued /
// introspected / revoked through the service's own API. Each account
// lives once, in the authority's table (Service.accounts); the service
// keeps no copy. Registration is durable — a userRecord WAL entry per
// registration, folded into checkpoints from the authority's stored
// accounts — so a -data-dir server's users survive restarts and can
// simply log in again; an account seeded straight on the authority is
// never checkpointed, but registration still refuses it. Tokens are
// deliberately NOT durable (see the durable.go taxonomy): a restart
// invalidates outstanding bearers, which is a security posture, not a
// bug.
//
// Registration and login are OPEN routes (like healthz): a caller
// cannot hold a token before obtaining one. Open self-registration is
// a reproduction simplification standing in for Globus Auth's external
// identity-provider onboarding — docs/SECURITY.md spells out the
// model and its limits.

// defaultProvider resolves the identity provider a register/login
// request targets when it names none.
func (s *Service) defaultProvider() string {
	if s.cfg.AuthProvider != "" {
		return s.cfg.AuthProvider
	}
	return "local"
}

// RegisterUser creates a durable account (and optionally binds its
// identity to a tenant), returning the identity URN. The password is
// hashed here; only the hash reaches the auth service, the WAL, and
// checkpoints. Because the route is open, registration is strictly
// create-only — the commit's check refuses an existing account with a
// 409, so no anonymous caller can overwrite a password — and the
// provider must be one the server registered at startup (replay alone
// may resurrect providers).
func (s *Service) RegisterUser(providerName, username, password, fullName, email, tenantID string) (string, error) {
	if s.cfg.Auth == nil {
		return "", ErrBadRequest.WithDetail("authentication is not enabled on this server (start it with -auth)")
	}
	if providerName == "" {
		providerName = s.defaultProvider()
	}
	if username == "" || password == "" {
		return "", ErrBadRequest.WithDetail("username and password are required")
	}
	if !auth.ValidName(providerName) || !auth.ValidName(username) {
		return "", ErrBadRequest.WithDetail("provider and username must match [A-Za-z0-9._-]+")
	}
	if !s.cfg.Auth.HasProvider(providerName) {
		return "", ErrBadRequest.WithDetail("unknown identity provider " + strconv.Quote(providerName) + " (the server registers providers at startup; see -auth-provider)")
	}
	if tenantID == auth.AnonymousTenantID {
		return "", ErrBadRequest.WithDetail("identities cannot be bound to the anonymous tenant explicitly")
	}
	rec := userRecord{
		Provider:     providerName,
		Username:     username,
		PasswordHash: auth.HashPassword(password),
		FullName:     fullName,
		Email:        email,
	}
	err := s.commit(recKindUser, func() (any, error) {
		if s.accounts.HasAccount(providerName, username) {
			return nil, ErrConflict.WithDetail("account " + providerName + "/" + username + " already exists")
		}
		return rec, nil
	}, func() { s.applyUser(rec) })
	if err != nil {
		return "", err
	}
	identityID := auth.URN(providerName, username)
	if tenantID != "" {
		if err := s.BindTenant(identityID, tenantID); err != nil {
			return "", err
		}
	}
	return identityID, nil
}

// LoginResult is the POST /api/v2/auth/login response payload.
type LoginResult struct {
	AccessToken string    `json:"access_token"`
	TokenType   string    `json:"token_type"` // always "Bearer"
	ExpiresAt   time.Time `json:"expires_at"`
	IdentityID  string    `json:"identity_id"`
	Tenant      string    `json:"tenant,omitempty"`
}

// Login authenticates provider credentials and issues a bearer token
// carrying the run scope, resolving the identity's tenant for the
// client's benefit.
func (s *Service) Login(providerName, username, password string) (LoginResult, error) {
	if s.cfg.Auth == nil {
		return LoginResult{}, ErrBadRequest.WithDetail("authentication is not enabled on this server (start it with -auth)")
	}
	if providerName == "" {
		providerName = s.defaultProvider()
	}
	var scopes []string
	if s.cfg.RunScope != "" {
		scopes = []string{s.cfg.RunScope}
	}
	tok, err := s.cfg.Auth.Authenticate(providerName, username, password, s.cfg.AuthClientID, scopes...)
	if err != nil {
		return LoginResult{}, ErrUnauthorized.WithDetail(err.Error())
	}
	return LoginResult{
		AccessToken: tok.Value,
		TokenType:   "Bearer",
		ExpiresAt:   tok.ExpiresAt,
		IdentityID:  tok.IdentityID,
		Tenant:      s.route.tenantOf(tok.IdentityID),
	}, nil
}

// RevokeToken invalidates a token (and its dependent tokens). Knowing
// the token value is the authorization — exactly introspection's trust
// model.
func (s *Service) RevokeToken(token string) error {
	if s.cfg.Auth == nil {
		return ErrBadRequest.WithDetail("authentication is not enabled on this server (start it with -auth)")
	}
	s.cfg.Auth.Revoke(strings.TrimPrefix(token, "Bearer "))
	return nil
}

// --- HTTP surface -------------------------------------------------------------

// RegisterRequest is the POST /api/v2/auth/register body.
type RegisterRequest struct {
	Provider string `json:"provider,omitempty"` // default: the server's provider
	Username string `json:"username"`
	Password string `json:"password"`
	Name     string `json:"name,omitempty"`
	Email    string `json:"email,omitempty"`
	// Tenant optionally binds the new identity to a tenant for quota
	// accounting and fairness.
	Tenant string `json:"tenant,omitempty"`
}

// LoginRequest is the POST /api/v2/auth/login body.
type LoginRequest struct {
	Provider string `json:"provider,omitempty"`
	Username string `json:"username"`
	Password string `json:"password"`
}

// RevokeRequest is the POST /api/v2/auth/revoke body; an empty token
// revokes the request's own bearer.
type RevokeRequest struct {
	Token string `json:"token,omitempty"`
}

func (s *Service) routesV2Auth(mux *door) {
	mux.HandleFunc("POST /api/v2/auth/register", s.handleV2AuthRegister)
	mux.HandleFunc("POST /api/v2/auth/login", s.handleV2AuthLogin)
	mux.HandleFunc("POST /api/v2/auth/revoke", s.handleV2AuthRevoke)
	mux.HandleFunc("GET /api/v2/auth/whoami", endpoint(s, s.handleV2AuthWhoami))
}

func (s *Service) handleV2AuthRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readV2(w, r, &req) {
		return
	}
	identityID, err := s.RegisterUser(req.Provider, req.Username, req.Password, req.Name, req.Email, req.Tenant)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	writeV2(w, http.StatusCreated, map[string]string{
		"identity_id": identityID,
		"tenant":      req.Tenant,
	})
}

func (s *Service) handleV2AuthLogin(w http.ResponseWriter, r *http.Request) {
	var req LoginRequest
	if !readV2(w, r, &req) {
		return
	}
	res, err := s.Login(req.Provider, req.Username, req.Password)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	writeV2(w, http.StatusOK, res)
}

func (s *Service) handleV2AuthRevoke(w http.ResponseWriter, r *http.Request) {
	var req RevokeRequest
	if !readV2(w, r, &req) {
		return
	}
	token := req.Token
	if token == "" {
		token = r.Header.Get("Authorization")
	}
	if token == "" {
		writeV2Error(w, ErrBadRequest.WithDetail("no token to revoke (body token or Authorization header)"))
		return
	}
	if err := s.RevokeToken(token); err != nil {
		writeV2Error(w, err)
		return
	}
	writeV2(w, http.StatusOK, map[string]string{"status": "revoked"})
}

// handleV2AuthWhoami echoes the resolved caller — the smoke tests' and
// CLI's way to check a token end to end.
func (s *Service) handleV2AuthWhoami(_ *http.Request, c Caller, _ *noBody) (int, any, error) {
	return http.StatusOK, map[string]any{
		"identity_id": c.IdentityID,
		"tenant":      tenantLabel(c.Tenant),
		"principals":  c.Principals,
	}, nil
}
