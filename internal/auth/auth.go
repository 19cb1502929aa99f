// Package auth reproduces the slice of Globus Auth that DLHub depends on
// (§IV-D): brokered authentication against many identity providers,
// short-term access tokens with scopes, token introspection by resource
// servers, dependent tokens, and groups used for fine-grained access
// control on models (the CANDLE use case, §VI-A, shares unreleased
// models with "a subset of selected users").
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by the service.
var (
	ErrUnknownIdentity   = errors.New("auth: unknown identity")
	ErrUnknownProvider   = errors.New("auth: unknown identity provider")
	ErrBadCredentials    = errors.New("auth: invalid credentials")
	ErrInvalidToken      = errors.New("auth: invalid token")
	ErrExpiredToken      = errors.New("auth: expired token")
	ErrInsufficientScope = errors.New("auth: insufficient scope")
	ErrUnknownClient     = errors.New("auth: unknown client")
	ErrUnknownGroup      = errors.New("auth: unknown group")
	ErrInvalidName       = errors.New("auth: invalid provider or username")
)

// ValidName reports whether a provider or username is safe to embed in
// the places identities are keyed: durable user-table keys
// (<provider>/<username>) and identity URNs
// (urn:identity:<provider>:<username>). Allowing '/' or ':' would let
// two distinct registrations alias the same record, so names are
// restricted to [A-Za-z0-9._-].
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Identity is one identity from one provider (e.g. an ORCID, a campus
// login, a Google account).
type Identity struct {
	ID       string // urn:identity:<provider>:<username>
	Provider string
	Username string
	Name     string
	Email    string
}

// URN returns the identity's stable uniform resource name.
func URN(provider, username string) string {
	return "urn:identity:" + provider + ":" + username
}

// GroupURN returns the ACL principal for a group.
func GroupURN(groupID string) string { return "urn:group:" + groupID }

// PublicPrincipal is the ACL principal meaning "anyone".
const PublicPrincipal = "public"

// Token is an issued bearer credential.
type Token struct {
	Value      string
	IdentityID string
	ClientID   string // resource server the token is for
	Scopes     []string
	IssuedAt   time.Time
	ExpiresAt  time.Time
	// Parent is the token this one was derived from via a dependent
	// token grant, "" for primary tokens.
	Parent string
}

// HasScope reports whether the token carries the given scope.
func (t *Token) HasScope(scope string) bool {
	for _, s := range t.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// Client is a registered resource server (e.g. the DLHub Management
// Service is "registered as a Globus Auth resource server with
// associated scope for programmatic invocation").
type Client struct {
	ID     string
	Name   string
	Scopes []string // scopes this resource server defines
}

// provider is an identity provider with password-checked accounts.
type provider struct {
	name  string
	users map[string]string // username -> password hash (hex sha256)
}

// Service is the in-process Globus-Auth-like authority.
type Service struct {
	mu         sync.RWMutex
	providers  map[string]*provider
	identities map[string]*Identity
	clients    map[string]*Client
	tokens     map[string]*Token
	groups     map[string]map[string]bool // group id -> member identity ids

	hmacKey  []byte
	tokenTTL time.Duration
	now      func() time.Time
}

// NewService creates an authority with the given token lifetime.
func NewService(tokenTTL time.Duration) *Service {
	if tokenTTL <= 0 {
		tokenTTL = time.Hour
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		panic("auth: crypto/rand failed: " + err.Error())
	}
	return &Service{
		providers:  make(map[string]*provider),
		identities: make(map[string]*Identity),
		clients:    make(map[string]*Client),
		tokens:     make(map[string]*Token),
		groups:     make(map[string]map[string]bool),
		hmacKey:    key,
		tokenTTL:   tokenTTL,
		now:        time.Now,
	}
}

func hashPassword(pw string) string {
	sum := sha256.Sum256([]byte(pw))
	return hex.EncodeToString(sum[:])
}

// HashPassword returns the stored form of a password. It is exported so
// the Management Service can hash at registration time and persist only
// the hash — plaintext credentials never reach the WAL or checkpoints.
func HashPassword(pw string) string { return hashPassword(pw) }

// RegisterProvider adds an identity provider (campus, ORCID, Google...).
func (s *Service) RegisterProvider(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.providers[name]; !ok {
		s.providers[name] = &provider{name: name, users: make(map[string]string)}
	}
}

// HasProvider reports whether the named identity provider is
// registered. The Management Service checks this on its open
// registration route so callers cannot mint identities under provider
// namespaces the operator never configured.
func (s *Service) HasProvider(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.providers[name]
	return ok
}

// RegisterUser creates an account at a provider and its identity record.
func (s *Service) RegisterUser(providerName, username, password, fullName, email string) (*Identity, error) {
	if !ValidName(providerName) || !ValidName(username) {
		return nil, fmt.Errorf("%w: %s/%s", ErrInvalidName, providerName, username)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.providers[providerName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProvider, providerName)
	}
	p.users[username] = hashPassword(password)
	id := &Identity{
		ID:       URN(providerName, username),
		Provider: providerName,
		Username: username,
		Name:     fullName,
		Email:    email,
	}
	s.identities[id.ID] = id
	return id, nil
}

// RegisterUserHashed installs an account from its stored credential —
// the WAL-replay path (tail and checkpoint), where only the hash
// survives. It is an idempotent upsert: re-applying a record converges,
// and the provider is created if the replaying process never registered
// it explicitly.
func (s *Service) RegisterUserHashed(providerName, username, passwordHash, fullName, email string) *Identity {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.providers[providerName]
	if !ok {
		p = &provider{name: providerName, users: make(map[string]string)}
		s.providers[providerName] = p
	}
	p.users[username] = passwordHash
	id := &Identity{
		ID:       URN(providerName, username),
		Provider: providerName,
		Username: username,
		Name:     fullName,
		Email:    email,
	}
	s.identities[id.ID] = id
	return id
}

// RegisterClient registers a resource server and the scopes it defines.
func (s *Service) RegisterClient(id, name string, scopes ...string) *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Client{ID: id, Name: name, Scopes: scopes}
	s.clients[id] = c
	return c
}

// Authenticate validates provider credentials and issues a token for the
// given resource server and scopes.
func (s *Service) Authenticate(providerName, username, password, clientID string, scopes ...string) (*Token, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.providers[providerName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProvider, providerName)
	}
	stored, ok := p.users[username]
	if !ok || !hmac.Equal([]byte(stored), []byte(hashPassword(password))) {
		return nil, ErrBadCredentials
	}
	client, ok := s.clients[clientID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClient, clientID)
	}
	for _, want := range scopes {
		if !clientDefines(client, want) {
			return nil, fmt.Errorf("%w: client %s does not define scope %s", ErrInsufficientScope, clientID, want)
		}
	}
	return s.issueLocked(URN(providerName, username), clientID, scopes, ""), nil
}

func clientDefines(c *Client, scope string) bool {
	for _, s := range c.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// issueLocked mints a signed opaque token. Caller holds s.mu.
func (s *Service) issueLocked(identityID, clientID string, scopes []string, parent string) *Token {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		panic("auth: crypto/rand failed: " + err.Error())
	}
	mac := hmac.New(sha256.New, s.hmacKey)
	mac.Write(nonce[:])
	mac.Write([]byte(identityID))
	value := "agt_" + hex.EncodeToString(nonce[:]) + hex.EncodeToString(mac.Sum(nil))[:16]
	tok := &Token{
		Value:      value,
		IdentityID: identityID,
		ClientID:   clientID,
		Scopes:     append([]string(nil), scopes...),
		IssuedAt:   s.now(),
		ExpiresAt:  s.now().Add(s.tokenTTL),
		Parent:     parent,
	}
	s.tokens[value] = tok
	return tok
}

// Introspect validates a bearer token the way a resource server does,
// returning its claims.
func (s *Service) Introspect(tokenValue string) (*Token, error) {
	s.mu.RLock()
	tok, ok := s.tokens[tokenValue]
	now := s.now()
	s.mu.RUnlock()
	if !ok {
		return nil, ErrInvalidToken
	}
	if now.After(tok.ExpiresAt) {
		return nil, ErrExpiredToken
	}
	return tok, nil
}

// DependentToken lets a resource server (holding parentToken from a
// user) obtain a token for a downstream service on the user's behalf —
// how the DLHub Management Service transfers model components "from
// Globus endpoints seamlessly" (§IV-D).
func (s *Service) DependentToken(parentToken, downstreamClientID string, scopes ...string) (*Token, error) {
	parent, err := s.Introspect(parentToken)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	client, ok := s.clients[downstreamClientID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownClient, downstreamClientID)
	}
	for _, want := range scopes {
		if !clientDefines(client, want) {
			return nil, fmt.Errorf("%w: %s does not define %s", ErrInsufficientScope, downstreamClientID, want)
		}
	}
	return s.issueLocked(parent.IdentityID, downstreamClientID, scopes, parentToken), nil
}

// Revoke invalidates a token and every dependent token derived from it.
func (s *Service) Revoke(tokenValue string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tokens, tokenValue)
	for v, t := range s.tokens {
		if t.Parent == tokenValue {
			delete(s.tokens, v)
		}
	}
}

// --- groups -------------------------------------------------------------

// CreateGroup makes an empty group.
func (s *Service) CreateGroup(groupID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.groups[groupID] == nil {
		s.groups[groupID] = make(map[string]bool)
	}
}

// AddToGroup adds an identity to a group.
func (s *Service) AddToGroup(groupID, identityID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.groups[groupID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGroup, groupID)
	}
	if _, ok := s.identities[identityID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownIdentity, identityID)
	}
	g[identityID] = true
	return nil
}

// Principals returns every ACL principal the identity matches: its own
// URN, every group it belongs to, and the public principal. Model
// visibility lists are checked against this set.
func (s *Service) Principals(identityID string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := map[string]bool{PublicPrincipal: true, identityID: true}
	for gid, members := range s.groups {
		if members[identityID] {
			set[GroupURN(gid)] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Authorize checks a bearer token and required scope in one call; it is
// the middleware primitive used by the Management Service REST API.
func (s *Service) Authorize(tokenValue, scope string) (*Token, error) {
	tok, err := s.Introspect(strings.TrimPrefix(tokenValue, "Bearer "))
	if err != nil {
		return nil, err
	}
	if scope != "" && !tok.HasScope(scope) {
		return nil, fmt.Errorf("%w: need %s", ErrInsufficientScope, scope)
	}
	return tok, nil
}
