package auth

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func newTestService(t *testing.T) *Service {
	t.Helper()
	s := NewService(time.Hour)
	s.RegisterProvider("orcid")
	s.RegisterProvider("uchicago")
	s.RegisterClient("dlhub", "DLHub Management Service", "dlhub:all", "dlhub:publish")
	s.RegisterClient("transfer", "Globus Transfer", "transfer:all")
	return s
}

func TestAuthenticateHappyPath(t *testing.T) {
	s := newTestService(t)
	if _, err := s.RegisterUser("orcid", "rchard", "pw123", "Ryan Chard", "rc@anl.gov"); err != nil {
		t.Fatal(err)
	}
	tok, err := s.Authenticate("orcid", "rchard", "pw123", "dlhub", "dlhub:all")
	if err != nil {
		t.Fatal(err)
	}
	if tok.IdentityID != URN("orcid", "rchard") {
		t.Fatalf("wrong identity %s", tok.IdentityID)
	}
	got, err := s.Introspect(tok.Value)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasScope("dlhub:all") || got.HasScope("dlhub:publish") {
		t.Fatalf("scopes wrong: %v", got.Scopes)
	}
}

func TestAuthenticateFailures(t *testing.T) {
	s := newTestService(t)
	s.RegisterUser("orcid", "u", "right", "U", "u@x") //nolint:errcheck

	if _, err := s.Authenticate("nope", "u", "right", "dlhub"); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("want unknown provider, got %v", err)
	}
	if _, err := s.Authenticate("orcid", "u", "wrong", "dlhub"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("want bad credentials, got %v", err)
	}
	if _, err := s.Authenticate("orcid", "ghost", "x", "dlhub"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("want bad credentials for unknown user, got %v", err)
	}
	if _, err := s.Authenticate("orcid", "u", "right", "ghost-client"); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("want unknown client, got %v", err)
	}
	if _, err := s.Authenticate("orcid", "u", "right", "dlhub", "transfer:all"); !errors.Is(err, ErrInsufficientScope) {
		t.Fatalf("want insufficient scope, got %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	s := newTestService(t)
	s.RegisterUser("orcid", "u", "pw", "U", "u@x") //nolint:errcheck
	now := time.Now()
	s.now = func() time.Time { return now }
	tok, err := s.Authenticate("orcid", "u", "pw", "dlhub", "dlhub:all")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := s.Introspect(tok.Value); !errors.Is(err, ErrExpiredToken) {
		t.Fatalf("want expired, got %v", err)
	}
}

func TestIntrospectGarbage(t *testing.T) {
	s := newTestService(t)
	if _, err := s.Introspect("agt_garbage"); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("want invalid token, got %v", err)
	}
}

func TestDependentTokens(t *testing.T) {
	s := newTestService(t)
	s.RegisterUser("orcid", "u", "pw", "U", "") //nolint:errcheck
	parent, _ := s.Authenticate("orcid", "u", "pw", "dlhub", "dlhub:all")

	dep, err := s.DependentToken(parent.Value, "transfer", "transfer:all")
	if err != nil {
		t.Fatal(err)
	}
	if dep.IdentityID != parent.IdentityID {
		t.Fatal("dependent token should act as the same user")
	}
	if dep.ClientID != "transfer" {
		t.Fatal("dependent token should target downstream client")
	}

	if _, err := s.DependentToken(parent.Value, "transfer", "dlhub:all"); !errors.Is(err, ErrInsufficientScope) {
		t.Fatalf("scope not defined downstream should fail, got %v", err)
	}
	if _, err := s.DependentToken("agt_bogus", "transfer", "transfer:all"); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("bogus parent should fail, got %v", err)
	}

	// Revoking the parent revokes the dependent token too.
	s.Revoke(parent.Value)
	if _, err := s.Introspect(dep.Value); !errors.Is(err, ErrInvalidToken) {
		t.Fatalf("dependent token should be revoked with parent, got %v", err)
	}
}

func TestGroupsAndPrincipals(t *testing.T) {
	s := newTestService(t)
	u, _ := s.RegisterUser("orcid", "u", "pw", "U", "")
	s.CreateGroup("candle-testers")
	if err := s.AddToGroup("candle-testers", u.ID); err != nil {
		t.Fatal(err)
	}

	prins := s.Principals(u.ID)
	want := map[string]bool{
		PublicPrincipal:            false,
		u.ID:                       false,
		GroupURN("candle-testers"): false,
	}
	for _, p := range prins {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("principal %s missing from %v", k, prins)
		}
	}

	if err := s.AddToGroup("ghost", u.ID); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("unknown group should fail, got %v", err)
	}
	if err := s.AddToGroup("candle-testers", "urn:identity:x:ghost"); !errors.Is(err, ErrUnknownIdentity) {
		t.Fatalf("unknown identity should fail, got %v", err)
	}
}

func TestAuthorizeMiddleware(t *testing.T) {
	s := newTestService(t)
	s.RegisterUser("orcid", "u", "pw", "U", "") //nolint:errcheck
	tok, _ := s.Authenticate("orcid", "u", "pw", "dlhub", "dlhub:all")

	if _, err := s.Authorize("Bearer "+tok.Value, "dlhub:all"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Authorize(tok.Value, "dlhub:all"); err != nil {
		t.Fatal("bare token should also work")
	}
	if _, err := s.Authorize("Bearer "+tok.Value, "dlhub:publish"); !errors.Is(err, ErrInsufficientScope) {
		t.Fatalf("missing scope should fail, got %v", err)
	}
}

func TestRegisterUserUnknownProvider(t *testing.T) {
	s := NewService(time.Hour)
	if _, err := s.RegisterUser("ghost", "u", "p", "U", ""); !errors.Is(err, ErrUnknownProvider) {
		t.Fatalf("want unknown provider, got %v", err)
	}
}

// Property: issued token values are unique and introspectable until
// revoked.
func TestTokenUniquenessProperty(t *testing.T) {
	s := newTestService(t)
	s.RegisterUser("orcid", "u", "pw", "U", "") //nolint:errcheck
	seen := map[string]bool{}
	f := func(_ uint8) bool {
		tok, err := s.Authenticate("orcid", "u", "pw", "dlhub", "dlhub:all")
		if err != nil || seen[tok.Value] {
			return false
		}
		seen[tok.Value] = true
		_, err = s.Introspect(tok.Value)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
