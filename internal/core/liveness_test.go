package core_test

import (
	"context"
	"encoding/json"
	"errors"
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

// Liveness: a Task Manager that stops heartbeating is dropped from
// routing; a live one keeps serving.

func liveSite(t *testing.T, ms *core.Service, tmID string, hb time.Duration) *taskmanager.TM {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), 2, k8s.Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	parsl := executor.NewParsl(cluster, container.NewBuilder(reg), netsim.Profile{})
	tm, err := taskmanager.New(taskmanager.Config{
		ID:                tmID,
		Queue:             taskmanager.BrokerAdapter{B: ms.Broker()},
		Executors:         map[string]executor.Executor{"parsl": parsl},
		HeartbeatInterval: hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestHeartbeatLivenessFiltering(t *testing.T) {
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		TMStaleAfter: 300 * time.Millisecond,
	})
	defer ms.Close()

	// Site A heartbeats fast; site B registers once and never again.
	tmA := liveSite(t, ms, "site-a", 50*time.Millisecond)
	defer tmA.Close()
	tmB := liveSite(t, ms, "site-b", 0)
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Immediately after registration, both are live.
	if got := len(ms.LiveTaskManagers()); got != 2 {
		t.Fatalf("want 2 live TMs initially, got %d", got)
	}

	// Close site B (its initial registration goes stale).
	tmB.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if live := ms.LiveTaskManagers(); len(live) == 1 && live[0] == "site-a" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site-b never went stale: live=%v", ms.LiveTaskManagers())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// New deploys + runs route only to the live site and succeed.
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ms.Run(context.Background(), core.Anonymous, id, i, core.RunOptions{}); err != nil {
			t.Fatalf("run %d should route to the live site: %v", i, err)
		}
	}
	doneA, _ := tmA.Stats()
	if doneA == 0 {
		t.Fatal("live site should have served the load")
	}
}

func TestAllTMsStale(t *testing.T) {
	ms := core.New(core.Config{
		Registry:     container.NewRegistry(),
		TMStaleAfter: 100 * time.Millisecond,
	})
	defer ms.Close()
	tm := liveSite(t, ms, "only", 0)
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tm.Close()
	time.Sleep(250 * time.Millisecond)

	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); !errors.Is(err, core.ErrNoTaskManager) {
		t.Fatalf("all-stale should surface ErrNoTaskManager, got %v", err)
	}
}

func TestLivenessDisabledByDefault(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	defer ms.Close()
	tm := liveSite(t, ms, "site", 0)
	defer tm.Close()
	if err := ms.WaitForTM(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// No staleness window configured: the TM stays routable forever.
	if got := len(ms.LiveTaskManagers()); got != 1 {
		t.Fatalf("liveness filtering should be off by default, got %d live", got)
	}
}

// TestDeregisterFreesLivenessRecord: a deregistered Task Manager leaves
// nothing behind to count. The dead-TM watch used to be a second
// structure that DeregisterTM could only mark — its entry stayed forever
// and /api/v2/stats read "watcher": {tms: 2, lost: 1} with one TM
// registered; now the liveness timer lives in the TM's one record and
// goes with it.
func TestDeregisterFreesLivenessRecord(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TMStaleAfter: time.Minute})
	defer ms.Close()
	for _, id := range []string{"site-a", "site-b"} {
		reg, err := json.Marshal(taskmanager.Registration{TMID: id})
		if err != nil {
			t.Fatal(err)
		}
		ms.Broker().Push(taskmanager.RegisterQueue, reg, "", "", "")
	}
	if err := ms.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeregisterTM("site-b"); err != nil {
		t.Fatal(err)
	}
	if got, want := ms.WatcherStats(), (core.WatcherStats{TMs: 1}); got != want {
		t.Fatalf("after deregistering one of two TMs: watcher stats = %+v, want %+v", got, want)
	}
	if live := ms.LiveTaskManagers(); len(live) != 1 || live[0] != "site-a" {
		t.Fatalf("live = %v, want [site-a]", live)
	}
}

// TestCloseDoesNotSitOutAPoll: Close of an idle service returns at once.
// The registration loop's long poll is bounded by the service lifetime,
// not by its 300 ms poll interval.
func TestCloseDoesNotSitOutAPoll(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	time.Sleep(10 * time.Millisecond) // let the loop park in its first poll
	start := time.Now()
	ms.Close()
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("Close of an idle service took %v, want < 50ms", took)
	}
}
