// Package transfer reproduces the Globus Transfer slice DLHub depends
// on (§IV-A): "As model components can be large, model components can
// be uploaded to an AWS S3 bucket or a Globus endpoint. Once a model is
// published, the Management Service downloads the components and builds
// the servable" — and §IV-D: dependent tokens let the service "transfer
// model components and inputs from Globus endpoints seamlessly" on the
// user's behalf.
//
// Endpoints are named stores with per-endpoint bandwidth and an access
// list; Fetch is the token-authorized download publication uses.
package transfer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/simconst"
)

// Errors.
var (
	ErrEndpointNotFound = errors.New("transfer: endpoint not found")
	ErrFileNotFound     = errors.New("transfer: file not found")
	ErrDenied           = errors.New("transfer: access denied")
)

// Endpoint is a Globus endpoint: a named file store with an egress
// bandwidth and an access list.
type Endpoint struct {
	Name string
	// BytesPerSec bounds transfer throughput out of this endpoint
	// (0 = unlimited).
	BytesPerSec float64
	// ReadableBy lists ACL principals; empty means public.
	ReadableBy []string

	mu    sync.RWMutex
	files map[string][]byte
}

// Put stores a file on the endpoint.
func (e *Endpoint) Put(path string, data []byte) {
	e.mu.Lock()
	if e.files == nil {
		e.files = make(map[string][]byte)
	}
	e.files[path] = append([]byte(nil), data...)
	e.mu.Unlock()
}

func (e *Endpoint) readable(principals []string) bool {
	if len(e.ReadableBy) == 0 {
		return true
	}
	for _, r := range e.ReadableBy {
		if r == auth.PublicPrincipal {
			return true
		}
		for _, p := range principals {
			if r == p {
				return true
			}
		}
	}
	return false
}

// Service is the transfer authority: it owns the endpoints. Auth may be
// nil (open access, as in benches).
type Service struct {
	Auth *auth.Service

	mu        sync.RWMutex
	endpoints map[string]*Endpoint
}

// NewService creates an empty transfer service.
func NewService(a *auth.Service) *Service {
	return &Service{Auth: a, endpoints: make(map[string]*Endpoint)}
}

// AddEndpoint registers an endpoint.
func (s *Service) AddEndpoint(e *Endpoint) {
	s.mu.Lock()
	s.endpoints[e.Name] = e
	s.mu.Unlock()
}

// Endpoint fetches a registered endpoint.
func (s *Service) Endpoint(name string) (*Endpoint, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrEndpointNotFound, name)
	}
	return e, nil
}

// principals resolves a bearer token into ACL principals. With no auth
// service configured, every caller is public.
func (s *Service) principals(token string) ([]string, error) {
	if s.Auth == nil || token == "" {
		return []string{auth.PublicPrincipal}, nil
	}
	tok, err := s.Auth.Introspect(token)
	if err != nil {
		return nil, err
	}
	return s.Auth.Principals(tok.IdentityID), nil
}

// Fetch synchronously reads a file from an endpoint, paying the
// endpoint's bandwidth cost — the "download the components" step of
// publication. token may be a dependent token minted for the service.
func (s *Service) Fetch(token, endpointName, path string) ([]byte, error) {
	prins, err := s.principals(token)
	if err != nil {
		return nil, err
	}
	ep, err := s.Endpoint(endpointName)
	if err != nil {
		return nil, err
	}
	if !ep.readable(prins) {
		return nil, fmt.Errorf("%w: endpoint %s", ErrDenied, endpointName)
	}
	ep.mu.RLock()
	data, ok := ep.files[path]
	ep.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s:%s", ErrFileNotFound, endpointName, path)
	}
	if ep.BytesPerSec > 0 {
		cost := time.Duration(float64(len(data)) / ep.BytesPerSec * float64(time.Second))
		time.Sleep(simconst.D(cost))
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Reference names a file on an endpoint ("globus://endpoint/path"),
// the form model components take in publication requests.
type Reference struct {
	Endpoint string `json:"endpoint"`
	Path     string `json:"path"`
}

// String renders the canonical URI.
func (r Reference) String() string { return "globus://" + r.Endpoint + "/" + r.Path }

// ParseReference parses "globus://endpoint/path".
func ParseReference(uri string) (Reference, error) {
	const prefix = "globus://"
	if len(uri) <= len(prefix) || uri[:len(prefix)] != prefix {
		return Reference{}, fmt.Errorf("transfer: not a globus URI: %q", uri)
	}
	rest := uri[len(prefix):]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			if i == 0 || i == len(rest)-1 {
				break
			}
			return Reference{Endpoint: rest[:i], Path: rest[i+1:]}, nil
		}
	}
	return Reference{}, fmt.Errorf("transfer: malformed globus URI: %q", uri)
}
