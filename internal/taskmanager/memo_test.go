package taskmanager

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runInFlight starts a run of input on tm and returns once it is inside
// the gated executor, with the channel its reply comes on.
func runInFlight(t *testing.T, tm *TM, gate *gatedExecutor, input string) <-chan Reply {
	t.Helper()
	reply := make(chan Reply, 1)
	go func() { reply <- tm.handleRun(runTask(input)) }()
	awaitInvoke(t, gate)
	return reply
}

// awaitInvoke waits for a run to enter the gated executor.
func awaitInvoke(t *testing.T, gate *gatedExecutor) {
	t.Helper()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no run reached the executor")
	}
}

// waitFollowing waits until n goroutines wait in the memo's Follow:
// the runs that found an identical one in flight.
func waitFollowing(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if got := strings.Count(stacks, "outcome.(*Table[...]).Follow("); got >= n {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d runs wait on the one in flight, want %d", got, n)
		}
	}
}

// TestMemoForgetsRunInFlightAcrossRedeploy: a run in flight when its
// servable is redeployed computed the old model's reply. Its caller gets
// that reply, but the memo does not keep it: the same input afterwards
// runs on the new deployment.
func TestMemoForgetsRunInFlightAcrossRedeploy(t *testing.T) {
	gate := newGatedExecutor()
	tm, broker := startTMOn(t, true, gate)
	deployNoop(t, broker)
	reply := runInFlight(t, tm, gate, "x")
	deployNoop(t, broker) // the redeploy, through the task queue
	close(gate.release)
	if rep := <-reply; !rep.OK || rep.Cached {
		t.Fatalf("the run in flight: %+v", rep)
	}
	if rep := tm.handleRun(runTask("x")); !rep.OK || rep.Cached {
		t.Fatalf("a reply computed before the redeploy was served after it: %+v", rep)
	}
	if got := gate.invocations(); got != 2 {
		t.Fatalf("%d invocations, want one per deployment", got)
	}
}

// TestMemoToggleDropsRunInFlight: a run in flight while memoization is
// turned off and on again finishes into the memo that was dropped, not
// into the new one.
func TestMemoToggleDropsRunInFlight(t *testing.T) {
	gate := newGatedExecutor()
	tm, broker := startTMOn(t, true, gate)
	deployNoop(t, broker)
	reply := runInFlight(t, tm, gate, "x")
	tm.SetMemoize(false)
	tm.SetMemoize(true)
	close(gate.release)
	if rep := <-reply; !rep.OK || rep.Cached {
		t.Fatalf("the run in flight: %+v", rep)
	}
	if rep := tm.handleRun(runTask("x")); !rep.OK || rep.Cached {
		t.Fatalf("a reply from before the memo was cleared landed in it: %+v", rep)
	}
}

// TestMemoSharesRunsInFlight: identical runs that arrive while the first
// is still executing wait for its reply instead of invoking again; each
// is a hit.
func TestMemoSharesRunsInFlight(t *testing.T) {
	const n = 8
	gate := newGatedExecutor()
	tm, broker := startTMOn(t, true, gate)
	deployNoop(t, broker)
	first := runInFlight(t, tm, gate, "x")
	replies := make(chan Reply, n-1)
	for range n - 1 {
		go func() { replies <- tm.handleRun(runTask("x")) }()
	}
	waitFollowing(t, n-1)
	close(gate.release)
	if rep := <-first; !rep.OK || rep.Cached {
		t.Fatalf("the first run: %+v", rep)
	}
	for range n - 1 {
		if rep := <-replies; !rep.OK || !rep.Cached || rep.Output != "ran:x" {
			t.Fatalf("an identical run: %+v", rep)
		}
	}
	if got := gate.invocations(); got != 1 {
		t.Fatalf("%d identical runs invoked %d times, want once", n, got)
	}
	if _, hits := tm.Stats(); hits != n-1 {
		t.Fatalf("%d hits, want %d", hits, n-1)
	}
}

// TestMemoFollowerOfFailedRunRunsItself: a failed reply is not shared —
// a run that waited on it invokes for itself — and is not kept.
func TestMemoFollowerOfFailedRunRunsItself(t *testing.T) {
	gate := newGatedExecutor()
	tm, broker := startTMOn(t, true, gate)
	deployNoop(t, broker)
	first := runInFlight(t, tm, gate, "x")
	second := make(chan Reply, 1)
	go func() { second <- tm.handleRun(runTask("x")) }()
	waitFollowing(t, 1)
	gate.release <- errors.New("pod lost")
	if rep := <-first; rep.OK {
		t.Fatalf("the first run should fail: %+v", rep)
	}
	awaitInvoke(t, gate)
	gate.release <- nil
	if rep := <-second; !rep.OK || rep.Cached {
		t.Fatalf("the run that waited on a failure: %+v", rep)
	}
	if got := gate.invocations(); got != 2 {
		t.Fatalf("%d invocations, want 2", got)
	}
	if _, hits := tm.Stats(); hits != 0 {
		t.Fatalf("%d hits, want none", hits)
	}
}
