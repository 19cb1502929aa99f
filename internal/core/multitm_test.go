package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// newSite builds one "site": a mini cluster with a Parsl executor,
// attached to the shared broker as a Task Manager.
func newSite(t *testing.T, ms *core.Service, tmID string) *taskmanager.TM {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), 2, k8s.Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	parsl := executor.NewParsl(cluster, container.NewBuilder(reg), netsim.Profile{})
	tm, err := taskmanager.New(taskmanager.Config{
		ID:        tmID,
		Queue:     taskmanager.BrokerAdapter{B: ms.Broker()},
		Executors: map[string]executor.Executor{"parsl": parsl},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tm.Close)
	return tm
}

// The paper's architecture has "one or more Task Managers" (§IV). With
// two sites registered, deploys must pin a servable to one site and
// runs must route only to sites hosting it.
func TestMultiTaskManagerRouting(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	tmB := newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(ms.TaskManagers()); got != 2 {
		t.Fatalf("want 2 TMs, got %d", got)
	}

	// Publish two servables; placement-aware routing deploys them
	// round-robin across the sites.
	idNoop, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	utilPkg := servable.MatminerUtilPackage()
	idUtil, err := ms.Publish(context.Background(), core.Anonymous, utilPkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, idNoop, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, idUtil, 1, "parsl"); err != nil {
		t.Fatal(err)
	}

	// Every run must succeed: requests are routed to the hosting TM,
	// never blindly round-robined to a site without the servable.
	for i := 0; i < 10; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, idNoop, i, core.RunOptions{}); err != nil {
			t.Fatalf("noop run %d misrouted: %v", i, err)
		}
		if _, err := ms.Run(context.Background(), core.Anonymous, idUtil, "NaCl", core.RunOptions{}); err != nil {
			t.Fatalf("util run %d misrouted: %v", i, err)
		}
	}

	// Work went to both sites (two servables, two sites, round-robin
	// deploy placement).
	doneA, _ := tmA.Stats()
	doneB, _ := tmB.Stats()
	if doneA == 0 || doneB == 0 {
		t.Fatalf("load should span both sites: site-a=%d site-b=%d", doneA, doneB)
	}
}

func TestDeployToBothSites(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tmA := newSite(t, ms, "site-a")
	tmB := newSite(t, ms, "site-b")
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	// Deploying twice places the servable on one site, then re-deploys
	// route to the same site (sticky placement).
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 2, "parsl"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, i, core.RunOptions{}); err != nil {
			t.Fatalf("run %d failed: %v", i, err)
		}
	}
	doneA, _ := tmA.Stats()
	doneB, _ := tmB.Stats()
	// All runs land on the placement site; exactly one site served them.
	if doneA > 0 && doneB > 0 {
		// Both saw deploy tasks at most; runs must be on one site only.
		if doneA > 2 && doneB > 2 {
			t.Fatalf("runs leaked to both sites: a=%d b=%d", doneA, doneB)
		}
	}
}
