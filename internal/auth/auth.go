// Package auth reproduces the slice of Globus Auth that DLHub depends on
// (§IV-D): brokered authentication against many identity providers,
// short-term access tokens with scopes, token introspection by resource
// servers, dependent tokens, and groups used for fine-grained access
// control on models (the CANDLE use case, §VI-A, shares unreleased
// models with "a subset of selected users"). Each account is one entry
// in one table, keyed by identity URN; a Management Service in front
// keeps no copy and reads the stored ones back for its checkpoints.
// Issued tokens live in memory only, and expired ones leave the table.
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
// the places identities are keyed: checkpoint and fingerprint keys
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

// account is one registered identity and its credential, the only copy
// of either. stored marks an account installed from its stored
// credential (RegisterUserHashed: the Management Service's user record,
// committed or replayed), which that service checkpoints; an account
// seeded with a password (RegisterUser) is never written anywhere.
type account struct {
	id     Identity
	hash   string // hex sha256 of the password
	stored bool
}

// Service is the in-process Globus-Auth-like authority.
type Service struct {
	mu        sync.RWMutex
	providers map[string]bool
	accounts  map[string]account // identity URN -> account
	clients   map[string]*Client
	tokens    map[string]*Token
	// dependents lists, under a parent token's value, the tokens issued
	// from it (DependentToken), so that Revoke reaches them without a
	// scan. An entry lives as long as any token it lists: a sweep drops
	// the listed tokens that have left the table, and the entry with the
	// last of them, whether or not its parent is still there.
	dependents map[string][]string
	// swept is len(tokens) after the last sweep of expired tokens: the
	// next sweep runs when an issue finds the table twice that size.
	swept  int
	groups map[string]map[string]bool // group id -> member identity ids

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
		providers:  make(map[string]bool),
		accounts:   make(map[string]account),
		clients:    make(map[string]*Client),
		tokens:     make(map[string]*Token),
		dependents: make(map[string][]string),
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
	s.providers[name] = true
}

// HasProvider reports whether the named identity provider is
// registered. The Management Service checks this on its open
// registration route so callers cannot mint identities under provider
// namespaces the operator never configured.
func (s *Service) HasProvider(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.providers[name]
}

// HasAccount reports whether an account exists at the provider,
// however it was installed. The Management Service's create-only
// registration refuses one that does.
func (s *Service) HasAccount(providerName, username string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.accounts[URN(providerName, username)]
	return ok
}

// RegisterUser seeds an account at a registered provider with a
// password, replacing any account of that identity. The account is not
// stored: a Management Service never checkpoints it.
func (s *Service) RegisterUser(providerName, username, password, fullName, email string) (*Identity, error) {
	if !ValidName(providerName) || !ValidName(username) {
		return nil, fmt.Errorf("%w: %s/%s", ErrInvalidName, providerName, username)
	}
	if !s.HasProvider(providerName) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProvider, providerName)
	}
	return s.install(providerName, username, hashPassword(password), fullName, email, false), nil
}

// RegisterUserHashed installs an account from its stored credential —
// the Management Service's user record, on commit and on replay (tail
// and checkpoint), where only the hash survives. It is an idempotent
// upsert: re-applying a record converges, and the provider is created
// if the replaying process never registered it explicitly.
func (s *Service) RegisterUserHashed(providerName, username, passwordHash, fullName, email string) *Identity {
	return s.install(providerName, username, passwordHash, fullName, email, true)
}

// install puts one account in the table, and its provider in the set.
func (s *Service) install(providerName, username, hash, fullName, email string, stored bool) *Identity {
	id := Identity{ID: URN(providerName, username), Provider: providerName, Username: username, Name: fullName, Email: email}
	s.mu.Lock()
	s.providers[providerName] = true
	s.accounts[id.ID] = account{id, hash, stored}
	s.mu.Unlock()
	return &id
}

// StoredAccounts calls visit with each account RegisterUserHashed
// installed and RegisterUser has not since replaced — what a Management
// Service checkpoints — and its credential hash. The authority's read
// lock is held meanwhile, so visit must not call the authority.
func (s *Service) StoredAccounts(visit func(id Identity, passwordHash string)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, a := range s.accounts {
		if a.stored {
			visit(a.id, a.hash)
		}
	}
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
	if !s.providers[providerName] {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProvider, providerName)
	}
	a, ok := s.accounts[URN(providerName, username)]
	if !ok || !hmac.Equal([]byte(a.hash), []byte(hashPassword(password))) {
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

// sweepFloor is the token-table size below which an issue never sweeps.
const sweepFloor = 64

// issueLocked mints a signed opaque token. Caller holds s.mu. Once the
// table has doubled since the last sweep it drops the expired tokens
// first, so the table stays within twice its live tokens (or the
// floor), and a sweep's cost is spread over the issues that doubled it.
func (s *Service) issueLocked(identityID, clientID string, scopes []string, parent string) *Token {
	now := s.now()
	if len(s.tokens) >= 2*max(s.swept, sweepFloor) {
		for v, t := range s.tokens {
			if now.After(t.ExpiresAt) {
				delete(s.tokens, v)
			}
		}
		for p, deps := range s.dependents {
			live := deps[:0]
			for _, v := range deps {
				if _, ok := s.tokens[v]; ok {
					live = append(live, v)
				}
			}
			if len(live) == 0 {
				delete(s.dependents, p)
			} else {
				s.dependents[p] = live
			}
		}
		s.swept = len(s.tokens)
	}
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
		IssuedAt:   now,
		ExpiresAt:  now.Add(s.tokenTTL),
		Parent:     parent,
	}
	s.tokens[value] = tok
	if parent != "" {
		s.dependents[parent] = append(s.dependents[parent], value)
	}
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
	for _, v := range s.dependents[tokenValue] {
		delete(s.tokens, v)
	}
	delete(s.dependents, tokenValue)
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
	if _, ok := s.accounts[identityID]; !ok {
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
