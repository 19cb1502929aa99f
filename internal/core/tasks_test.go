package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// waitTaskDone polls an async task to a terminal state.
func waitTaskDone(t *testing.T, ms *core.Service, taskID string) *core.AsyncTask {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := ms.TaskStatus(taskID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "pending" {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("async task never finished")
	return nil
}

// TestTaskRetentionSweep: a finished async task is deleted TaskRetention
// after it finishes; TaskStatus and TaskWatch (the SSE stream's lookup)
// then return ErrTaskNotFound, never a stale entry, and the sweep is
// counted in TaskStats.
func TestTaskRetentionSweep(t *testing.T) {
	fast := core.New(core.Config{Registry: container.NewRegistry(), TaskRetention: 30 * time.Millisecond})
	defer fast.Close()
	startFakeTM(t, fast, "tm-1", nil)
	if err := fast.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, fast)

	taskID, err := fast.RunAsync(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTaskDone(t, fast, taskID)
	if st.Status != "completed" {
		t.Fatalf("task should complete: %+v", st)
	}
	// Within retention the task stays queryable; after it, the sweeper
	// deletes it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := fast.TaskStatus(taskID); errors.Is(err, core.ErrTaskNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished task never swept")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := fast.TaskWatch(taskID); !errors.Is(err, core.ErrTaskNotFound) {
		t.Fatalf("TaskWatch after sweep should be not-found, got %v", err)
	}
	stats := fast.TaskStats()
	if stats.Swept == 0 {
		t.Fatalf("sweep should be counted: %+v", stats)
	}
	if stats.Tracked != 0 {
		t.Fatalf("no tasks should remain tracked: %+v", stats)
	}
}

// TestTaskSoakBounded: under sustained RunAsync load the task table
// stays bounded once retention kicks in — the regression this PR fixes
// was an insert-only map.
func TestTaskSoakBounded(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskRetention: 20 * time.Millisecond})
	defer ms.Close()
	startFakeTM(t, ms, "tm-1", nil)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id := publishNoop(t, ms)

	const total = 400
	for i := 0; i < total; i++ {
		if _, err := ms.RunAsync(context.Background(), core.Anonymous, id, i, core.RunOptions{NoCache: true, NoMemo: true}); err != nil {
			t.Fatal(err)
		}
		if i%40 == 0 {
			time.Sleep(25 * time.Millisecond) // let retention pass mid-soak
		}
	}
	// Mid-soak the table must already be far below the total issued.
	if tracked := ms.TaskStats().Tracked; tracked >= total/2 {
		t.Fatalf("task table not bounded under load: %d of %d still tracked", tracked, total)
	}
	// After the dust settles everything is swept.
	deadline := time.Now().Add(5 * time.Second)
	for ms.TaskStats().Tracked > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("task table never drained: %+v", ms.TaskStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := ms.TaskStats(); st.Swept != total {
		t.Fatalf("all %d tasks should be swept eventually: %+v", total, st)
	}
}

// TestCloseFailsPendingAsync: Service.Close cancels detached async runs
// through the service lifetime context — a pending task transitions to
// failed with a canceled error instead of its goroutine hanging on a
// dead broker until its own deadline.
func TestCloseFailsPendingAsync(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskTimeout: 30 * time.Second})
	// A TM that pulls nothing: the dispatched task would wait the full
	// 30s TaskTimeout if Close did not cancel it.
	reg, err := jsonMarshalReg("stuck-tm")
	if err != nil {
		t.Fatal(err)
	}
	ms.Broker().Push(taskmanager.RegisterQueue, reg, "", "", "")
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	taskID, err := ms.RunAsync(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Give the detached goroutine a moment to dispatch, then close.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	ms.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close blocked %v on a pending async task", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := ms.TaskStatus(taskID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Status != "pending" {
			if st.Status != "failed" || !strings.Contains(st.Error, "canceled") {
				t.Fatalf("pending async task should fail canceled on Close: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async task still pending after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseAbortsInFlightRun: Close releases a SYNCHRONOUS caller too.
// The TM has pulled the task and never answers; once Close tears the
// broker down no reply can arrive, so the Run must come back with
// ErrCanceled promptly instead of waiting out the 30s TaskTimeout.
func TestCloseAbortsInFlightRun(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskTimeout: 30 * time.Second})
	defer ms.Close()
	tm := startScriptedTM(t, ms, "mute-tm")
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
		errCh <- err
	}()
	tm.waitTask(5 * time.Second) // pulled and parked: the run is in flight at the site

	start := time.Now()
	ms.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("in-flight run got %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight run still blocked after Close")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("release took %v — stranded until some other deadline", waited)
	}
}

// TestDispatchAfterCloseCancelsAtOnce: a dispatch that starts after Close
// — the routing table's fan-out has already run — is canceled when it is
// charged, and leaves no waiter behind.
func TestDispatchAfterCloseCancelsAtOnce(t *testing.T) {
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskTimeout: 30 * time.Second})
	startScriptedTM(t, ms, "mute-tm")
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	ms.Close()
	start := time.Now()
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("run after Close: %v, want ErrCanceled", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("run after Close took %v", waited)
	}
	if st := ms.WatcherStats(); st.Waiters != 0 {
		t.Fatalf("a canceled dispatch is still a waiter: %+v", st)
	}
}

// jsonMarshalReg builds a minimal TM registration body.
func jsonMarshalReg(tmID string) ([]byte, error) {
	return []byte(`{"tm_id":"` + tmID + `","executors":["parsl"]}`), nil
}
