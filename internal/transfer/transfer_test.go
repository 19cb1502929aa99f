package transfer

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/auth"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func openService() *Service {
	s := NewService(nil)
	s.AddEndpoint(&Endpoint{Name: "petrel"})
	s.AddEndpoint(&Endpoint{Name: "laptop"})
	return s
}

func TestPutStatFetch(t *testing.T) {
	s := openService()
	ep, _ := s.Endpoint("petrel")
	ep.Put("/models/w.bin", []byte("weights"))

	data, err := s.Fetch("", "petrel", "/models/w.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("weights")) {
		t.Fatalf("fetch wrong: %q", data)
	}
	// Mutating the fetched copy must not corrupt the endpoint.
	data[0] = 'X'
	again, _ := s.Fetch("", "petrel", "/models/w.bin")
	if again[0] == 'X' {
		t.Fatal("Fetch must return a copy")
	}
}

func TestFetchErrors(t *testing.T) {
	s := openService()
	if _, err := s.Fetch("", "ghost", "/x"); !errors.Is(err, ErrEndpointNotFound) {
		t.Fatalf("want endpoint not found, got %v", err)
	}
	if _, err := s.Fetch("", "petrel", "/missing"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("want file not found, got %v", err)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	simconst.Scale = 1 // measure real sleeps here
	defer func() { simconst.Scale = 1000 }()
	s := NewService(nil)
	// 1 MB/s: 200 KB ~ 200ms.
	s.AddEndpoint(&Endpoint{Name: "slow", BytesPerSec: 1e6})
	ep, _ := s.Endpoint("slow")
	ep.Put("/f", make([]byte, 200_000))
	start := time.Now()
	if _, err := s.Fetch("", "slow", "/f"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("bandwidth not charged: %v", elapsed)
	}
}

func TestACLWithAuth(t *testing.T) {
	a := auth.NewService(time.Hour)
	a.RegisterProvider("orcid")
	a.RegisterClient("transfer", "Transfer", "transfer:all")
	u, _ := a.RegisterUser("orcid", "u", "pw", "U", "")
	a.RegisterUser("orcid", "v", "pw", "V", "") //nolint:errcheck

	s := NewService(a)
	s.AddEndpoint(&Endpoint{Name: "private", ReadableBy: []string{u.ID}})
	ep, _ := s.Endpoint("private")
	ep.Put("/secret", []byte("s"))

	utok, _ := a.Authenticate("orcid", "u", "pw", "transfer", "transfer:all")
	vtok, _ := a.Authenticate("orcid", "v", "pw", "transfer", "transfer:all")

	if _, err := s.Fetch(utok.Value, "private", "/secret"); err != nil {
		t.Fatalf("owner should read: %v", err)
	}
	if _, err := s.Fetch(vtok.Value, "private", "/secret"); !errors.Is(err, ErrDenied) {
		t.Fatalf("other user should be denied, got %v", err)
	}
	if _, err := s.Fetch("bogus-token", "private", "/secret"); err == nil {
		t.Fatal("bad token should fail")
	}
	// Dependent token (the DLHub pattern, §IV-D): a service acting for u.
	dep, err := a.DependentToken(utok.Value, "transfer", "transfer:all")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(dep.Value, "private", "/secret"); err != nil {
		t.Fatalf("dependent token should read on u's behalf: %v", err)
	}
}

func TestReferenceParse(t *testing.T) {
	r, err := ParseReference("globus://petrel/models/weights.bin")
	if err != nil {
		t.Fatal(err)
	}
	if r.Endpoint != "petrel" || r.Path != "models/weights.bin" {
		t.Fatalf("parse wrong: %+v", r)
	}
	if r.String() != "globus://petrel/models/weights.bin" {
		t.Fatalf("string wrong: %s", r)
	}
	for _, bad := range []string{"", "http://x/y", "globus://", "globus://onlyendpoint", "globus:///path", "globus://ep/"} {
		if _, err := ParseReference(bad); err == nil {
			t.Fatalf("%q should not parse", bad)
		}
	}
}

// Property: references round-trip through String/Parse.
func TestReferenceRoundTripProperty(t *testing.T) {
	f := func(epRaw, pathRaw uint16) bool {
		ep := "ep" + itoa(int(epRaw))
		path := "p/" + itoa(int(pathRaw))
		r := Reference{Endpoint: ep, Path: path}
		back, err := ParseReference(r.String())
		return err == nil && back == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
