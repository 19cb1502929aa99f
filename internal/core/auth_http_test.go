package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/store"
)

// The register route is OPEN (a caller cannot hold a token before
// obtaining one), which makes its hardening load-bearing: it must be
// strictly create-only, confined to operator-registered providers, and
// restricted to names that cannot alias durable keys or URNs.

func newAuthService(t *testing.T) *core.Service {
	t.Helper()
	as := auth.NewService(time.Hour)
	as.RegisterProvider("local")
	as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		Auth:         as,
		AuthProvider: "local",
		AuthClientID: "dlhub",
		RunScope:     "dlhub:serve",
	})
	t.Cleanup(func() { ms.Close() })
	return ms
}

// A second registration for an existing account must be rejected, and
// must not touch the stored credential — otherwise the open route is an
// account-takeover primitive.
func TestRegisterUserDuplicateRejected(t *testing.T) {
	ms := newAuthService(t)
	if _, err := ms.RegisterUser("", "alice", "hunter2", "Alice", "", ""); err != nil {
		t.Fatal(err)
	}
	_, err := ms.RegisterUser("", "alice", "stolen", "Mallory", "", "")
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("duplicate registration: err = %v, want ErrConflict", err)
	}
	// The original credential still works; the attacker's does not.
	if _, err := ms.Login("", "alice", "hunter2"); err != nil {
		t.Fatalf("original password no longer logs in: %v", err)
	}
	if _, err := ms.Login("", "alice", "stolen"); err == nil {
		t.Fatal("attacker password logs in after rejected re-registration")
	}
}

// Registration must stay inside the providers the operator registered
// at startup; auto-creating providers is a replay-only affordance.
func TestRegisterUserUnknownProviderRejected(t *testing.T) {
	ms := newAuthService(t)
	_, err := ms.RegisterUser("orcid", "alice", "pw", "", "", "")
	if !errors.Is(err, core.ErrBadRequest) {
		t.Fatalf("unknown provider: err = %v, want ErrBadRequest", err)
	}
	// And it must not have been created as a side effect.
	if _, err := ms.Login("orcid", "alice", "pw"); err == nil {
		t.Fatal("login succeeded against a provider registration should not have created")
	}
}

// Names embedding the user-table key delimiter '/' or the URN delimiter
// ':' could alias another identity's records; both are rejected.
func TestRegisterUserDelimiterNamesRejected(t *testing.T) {
	ms := newAuthService(t)
	for _, username := range []string{"a/b", "a:b", "urn:identity:local:x", " "} {
		if _, err := ms.RegisterUser("", username, "pw", "", "", ""); !errors.Is(err, core.ErrBadRequest) {
			t.Fatalf("username %q: err = %v, want ErrBadRequest", username, err)
		}
	}
}

// Fingerprints show up verbatim in test-failure diffs; they must cover
// credentials without containing the stored password hash itself.
func TestStateFingerprintOmitsPasswordHash(t *testing.T) {
	ms := newAuthService(t)
	if _, err := ms.RegisterUser("", "alice", "hunter2", "Alice", "", ""); err != nil {
		t.Fatal(err)
	}
	fp := ms.StateFingerprint()
	if !strings.Contains(fp, "user local/alice") {
		t.Fatalf("fingerprint does not cover the registration:\n%s", fp)
	}
	if strings.Contains(fp, auth.HashPassword("hunter2")) {
		t.Fatalf("fingerprint leaks the stored password hash:\n%s", fp)
	}
}

// An account seeded straight on the authority (as examples/candle seeds
// its users) is one the open route must not re-register: the 409 comes
// from the authority's one table, so the seeded password keeps working
// and the caller's does not. A seeded account is never durable: it is
// in neither the fingerprint nor a checkpoint.
func TestRegisterUserRefusesSeededAccount(t *testing.T) {
	dir := t.TempDir()
	w, err := store.Open(store.Options{Dir: dir, Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	as := auth.NewService(time.Hour)
	as.RegisterProvider("local")
	as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		Auth:         as,
		AuthProvider: "local",
		AuthClientID: "dlhub",
		RunScope:     "dlhub:serve",
		Store:        w,
	})
	defer func() { ms.Close(); w.Close() }()
	if _, err := ms.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := as.RegisterUser("local", "alice", "hunter2", "Alice", ""); err != nil {
		t.Fatal(err)
	}

	if _, err := ms.RegisterUser("local", "alice", "evil", "Mallory", "", ""); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("registration over a seeded account: err = %v, want ErrConflict", err)
	}
	if _, err := ms.Login("local", "alice", "evil"); err == nil {
		t.Fatal("the caller's password logs in to the seeded account")
	}
	if _, err := ms.Login("local", "alice", "hunter2"); err != nil {
		t.Fatalf("the seeded password no longer logs in: %v", err)
	}

	// bob registers through the service: his account is durable.
	if _, err := ms.RegisterUser("local", "bob", "pw", "Bob", "", ""); err != nil {
		t.Fatal(err)
	}
	if fp := ms.StateFingerprint(); strings.Contains(fp, "alice") || !strings.Contains(fp, "user local/bob") {
		t.Fatalf("fingerprint must list bob and not the seeded alice:\n%s", fp)
	}
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := os.ReadFile(filepath.Join(dir, "checkpoint.log"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(cp, []byte("alice")) || !bytes.Contains(cp, []byte("bob")) {
		t.Fatalf("checkpoint must hold bob and not the seeded alice: %q", cp)
	}
}

// Accounts are registered, logged in to and fingerprinted from many
// goroutines while the WAL compacts every few records, so the user apply
// and the checkpoint's account read run under the WAL's lock beside
// logins on the authority. Every registered account must survive a
// recovery into a fresh authority and log in there.
func TestAccountsUnderConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*core.Service, func()) {
		w, err := store.Open(store.Options{Dir: dir, Sync: false, CompactEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		as := auth.NewService(time.Hour)
		as.RegisterProvider("local")
		as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
		ms := core.New(core.Config{Registry: container.NewRegistry(), Auth: as, AuthClientID: "dlhub", RunScope: "dlhub:serve", Store: w})
		if _, err := ms.Recover(); err != nil {
			t.Fatal(err)
		}
		return ms, func() { ms.Close(); w.Close() }
	}
	ms, done := boot()
	const workers, each = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				user := "u" + strconv.Itoa(g) + "-" + strconv.Itoa(i)
				if _, err := ms.RegisterUser("", user, "pw", "", "", ""); err != nil {
					errs <- err
					return
				}
				if _, err := ms.Login("", user, "pw"); err != nil {
					errs <- err
					return
				}
				ms.StateFingerprint()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	done()

	ms2, done2 := boot()
	defer done2()
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("recovered accounts differ\n--- want\n%s--- got\n%s", want, got)
	}
	if n := strings.Count("\n"+want, "\nuser "); n != workers*each {
		t.Fatalf("fingerprint lists %d accounts, want %d", n, workers*each)
	}
	if _, err := ms2.Login("", "u3-9", "pw"); err != nil {
		t.Fatalf("login after recovery: %v", err)
	}
}
