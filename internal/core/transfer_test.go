package core_test

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/dlhub"
	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/ml/nn"
	"repro/internal/schema"
	"repro/internal/transfer"
)

// Publish-by-reference: components uploaded to a Globus endpoint are
// downloaded by the Management Service at publication time (§IV-A), via
// a dependent token (§IV-D) when auth is enabled.

func TestPublishByReferenceOpenService(t *testing.T) {
	ts := transfer.NewService(nil)
	ts.AddEndpoint(&transfer.Endpoint{Name: "petrel"})
	ep, _ := ts.Endpoint("petrel")
	model, err := nn.Encode(nn.NewCIFAR10(3))
	if err != nil {
		t.Fatal(err)
	}
	ep.Put("models/cifar.bin", model)

	ms := core.New(core.Config{Registry: container.NewRegistry(), Transfer: ts})
	defer ms.Close()

	fetched, err := ms.ResolveComponents("", map[string]string{"model": "globus://petrel/models/cifar.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if len(fetched["model"]) != len(model) {
		t.Fatal("fetched component size mismatch")
	}

	// Bad URI and missing file.
	if _, err := ms.ResolveComponents("", map[string]string{"m": "http://x/y"}); err == nil {
		t.Fatal("non-globus URI should fail")
	}
	if _, err := ms.ResolveComponents("", map[string]string{"m": "globus://petrel/ghost"}); !errors.Is(err, transfer.ErrFileNotFound) {
		t.Fatalf("want file not found, got %v", err)
	}
}

func TestPublishByReferenceNoTransferConfigured(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	if _, err := ms.ResolveComponents("", map[string]string{"m": "globus://a/b"}); err == nil {
		t.Fatal("reference resolution without a transfer service should fail")
	}
}

func TestPublishByReferenceEndToEndWithAuth(t *testing.T) {
	a := auth.NewService(time.Hour)
	a.RegisterProvider("orcid")
	a.RegisterClient("dlhub", "DLHub", "dlhub:all")
	a.RegisterClient("transfer", "Globus Transfer", "transfer:all")
	u, _ := a.RegisterUser("orcid", "ward", "pw", "Logan Ward", "")

	// The user's private endpoint holds the model weights.
	ts := transfer.NewService(a)
	ts.AddEndpoint(&transfer.Endpoint{Name: "ward-laptop", ReadableBy: []string{u.ID}})
	ep, _ := ts.Endpoint("ward-laptop")
	model, _ := nn.Encode(nn.NewCIFAR10(4))
	ep.Put("cifar.bin", model)

	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, Auth: a, RunScope: "dlhub:all"})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Enable reference resolution on the assembled MS (testbed builds
	// it without transfer, so build a parallel service configuration
	// through the exported knobs: reconfigure via a new service is
	// overkill — instead exercise ResolveComponents + Publish here).
	ms := core.New(core.Config{
		Auth:             a,
		RunScope:         "dlhub:all",
		Registry:         container.NewRegistry(),
		Transfer:         ts,
		TransferClientID: "transfer",
		TransferScope:    "transfer:all",
	})
	defer ms.Close()
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()

	tok, _ := a.Authenticate("orcid", "ward", "pw", "dlhub", "dlhub:all")
	client := dlhub.NewClient(srv.URL, tok.Value)

	doc := &schema.Document{
		Publication: schema.Publication{
			Name:    "cifar10-byref",
			Title:   "CIFAR-10 via Globus",
			Authors: []string{"Ward, Logan"},
		},
		Servable: schema.Servable{
			Type:            schema.TypeKeras,
			ModelComponents: map[string]string{"model": "cifar.bin"},
			Input:           schema.DataType{Kind: "ndarray", Shape: []int{32, 32, 3}},
			Output:          schema.DataType{Kind: "list"},
		},
	}
	id, err := client.PublishByReference(t.Context(), doc, map[string]string{"model": "globus://ward-laptop/cifar.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "ward/cifar10-byref" {
		t.Fatalf("unexpected id %s", id)
	}
	// The document is registered with the downloaded components.
	got, err := client.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Servable.Type != schema.TypeKeras {
		t.Fatal("document lost in publish-by-reference")
	}

	// Another user cannot publish from the private endpoint.
	a.RegisterUser("orcid", "eve", "pw", "Eve", "") //nolint:errcheck
	evtok, _ := a.Authenticate("orcid", "eve", "pw", "dlhub", "dlhub:all")
	evil := dlhub.NewClient(srv.URL, evtok.Value)
	doc2 := *doc
	doc2.Publication.Name = "stolen"
	if _, err := evil.PublishByReference(t.Context(), &doc2, map[string]string{"model": "globus://ward-laptop/cifar.bin"}); err == nil {
		t.Fatal("dependent token must not grant access to another user's endpoint")
	}
}
