package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// blackHoleTM registers a Task Manager identity with the service whose
// queue nothing consumes: dispatches to it hang until their context
// ends, which is exactly the condition the cancellation paths must
// handle. The returned service has the result cache enabled.
func blackHoleTM(t *testing.T) (*core.Service, string) {
	t.Helper()
	servable.RegisterBuiltins()
	ms := core.New(core.Config{})
	t.Cleanup(ms.Close)
	const tmID = "tm-black-hole"
	reg, err := json.Marshal(taskmanager.Registration{TMID: tmID, Executors: []string{"parsl"}})
	if err != nil {
		t.Fatal(err)
	}
	ms.Broker().Push(taskmanager.RegisterQueue, reg, "", "", "")
	if err := ms.WaitForTM(1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	return ms, tmID
}

// TestCancelMidDispatchFreesLoadSlot is the acceptance criterion:
// cancelling a Run's context mid-dispatch returns context.Canceled
// within 100ms, decrements the TM in-flight counter, and leaves no
// entry in the result cache.
func TestCancelMidDispatchFreesLoadSlot(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := ms.Run(ctx, core.Anonymous, id, "input", core.RunOptions{})
		errCh <- err
	}()

	// Wait for the dispatch to be in flight (load slot consumed).
	waitFor(t, time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })

	cancel()
	start := time.Now()
	select {
	case err := <-errCh:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("cancel took %v to propagate, want <100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("want ErrCanceled classification, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled Run never returned")
	}

	if load := ms.TMLoad()[tmID]; load != 0 {
		t.Fatalf("in-flight slot leaked: TMLoad=%d, want 0", load)
	}
	if stats := ms.CacheStats(); stats.Entries != 0 {
		t.Fatalf("canceled run poisoned the cache: %d entries", stats.Entries)
	}
}

// TestCancelLeaderReleasesFollowers: a follower collapsed onto a
// canceled leader must not inherit the cancellation — it re-dispatches
// as the new leader and gets a real result, which lands in the cache
// exactly once.
func TestCancelLeaderReleasesFollowers(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := ms.Run(leaderCtx, core.Anonymous, id, "shared-input", core.RunOptions{})
		leaderErr <- err
	}()
	waitFor(t, time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })

	type followerOut struct {
		res core.RunResult
		err error
	}
	followerCh := make(chan followerOut, 1)
	go func() {
		// Identical request: collapses onto the leader's flight.
		res, err := ms.Run(context.Background(), core.Anonymous, id, "shared-input", core.RunOptions{})
		followerCh <- followerOut{res, err}
	}()
	// Give the follower time to join the flight, then kill the leader.
	time.Sleep(50 * time.Millisecond)
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: want context.Canceled, got %v", err)
	}

	// The follower must now re-dispatch; answer its task by hand.
	replyOnce(t, ms, tmID, "late-but-real")

	select {
	case out := <-followerCh:
		if out.err != nil {
			t.Fatalf("follower inherited the leader's cancellation: %v", out.err)
		}
		if string(out.res.Output) != `"late-but-real"` {
			t.Fatalf("follower got %s, want late-but-real", out.res.Output)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower still blocked after leader cancel")
	}

	// The follower's (successful) result is the only cache entry, and a
	// third identical request must hit it.
	if stats := ms.CacheStats(); stats.Entries != 1 {
		t.Fatalf("want exactly 1 cache entry, got %d", stats.Entries)
	}
	res, err := ms.Run(context.Background(), core.Anonymous, id, "shared-input", core.RunOptions{})
	if err != nil || !res.CacheHit || string(res.Output) != `"late-but-real"` {
		t.Fatalf("post-cancel cache broken: res=%+v err=%v", res, err)
	}
	if load := ms.TMLoad()[tmID]; load != 0 {
		t.Fatalf("in-flight slots leaked: %d", load)
	}
}

// TestCancelWithdrawsQueuedTask: a task canceled before any consumer
// pulled it is withdrawn from the queue entirely — no Task Manager ever
// executes it.
func TestCancelWithdrawsQueuedTask(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := ms.Run(ctx, core.Anonymous, id, "x", core.RunOptions{NoMemo: true})
		errCh <- err
	}()
	queueName := taskmanager.TaskQueue(tmID)
	waitFor(t, time.Second, func() bool { return ms.Broker().Len(queueName) == 1 })
	cancel()
	<-errCh
	waitFor(t, time.Second, func() bool { return ms.Broker().Len(queueName) == 0 })
}

// TestRunCtxDeadlineBoundsRequest: the caller's ctx deadline is the one
// per-request timeout mechanism — it bounds a run whose TM never
// replies and reports ErrTimeout / context.DeadlineExceeded.
func TestRunCtxDeadlineBoundsRequest(t *testing.T) {
	ms, _ := blackHoleTM(t)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ms.Run(ctx, core.Anonymous, id, "x", core.RunOptions{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("ctx deadline not applied: took %v", elapsed)
	}
	if !errors.Is(err, core.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrTimeout + DeadlineExceeded, got %v", err)
	}
}

// TestMalformedTMReplyIsUpstream: a task answered with anything but a
// reply frame for that task whose output is one JSON value is the site's
// failure — 502 upstream_error, never the client's 400 — and nothing of it
// is cached (the same request dispatches again) or left holding a load
// slot.
func TestMalformedTMReplyIsUpstream(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	h := ms.Handler()
	frame := func(rep taskmanager.Reply) []byte {
		body, err := taskmanager.EncodeReply(rep)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, row := range []struct {
		name  string
		reply func(taskID string) []byte
	}{
		{"JSON, the old reply", func(string) []byte { return []byte(`{"ok":tr`) }},
		{"an HTML error page", func(string) []byte { return []byte(`<html>502 Bad Gateway</html>`) }},
		{"a truncated header", func(task string) []byte {
			return frame(taskmanager.Reply{TaskID: task, OK: true, Output: "x"})[:len(task)]
		}},
		{"an output that is not JSON", func(task string) []byte {
			return frame(taskmanager.Reply{TaskID: task, OK: true, Output: json.RawMessage(`{"a":`)})
		}},
		{"a task-ID mismatch", func(string) []byte {
			return frame(taskmanager.Reply{TaskID: "another-task", OK: true, Output: "x"})
		}},
		{"trailing bytes", func(task string) []byte {
			return append(frame(taskmanager.Reply{TaskID: task, OK: true, Output: "x"}), " junk"...)
		}},
	} {
		go func() {
			msg, ok := ms.Broker().PullCtx(context.Background(), taskmanager.TaskQueue(tmID), 2*time.Second)
			if !ok {
				t.Error("no task arrived on the TM queue")
				return
			}
			task, err := taskmanager.DecodeTask(msg.Body)
			if err != nil {
				t.Error(err)
				return
			}
			ms.Broker().Reply(msg, row.reply(task.ID))
		}()
		status, cache, env := postRun(t, h, id, strings.NewReader(`{"input":"x"}`))
		if status != http.StatusBadGateway || env.Error == nil || env.Error.Code != string(core.CodeUpstream) {
			t.Fatalf("%s: status %d, cache %q, error %+v; want 502 upstream_error", row.name, status, cache, env.Error)
		}
		if st := ms.CacheStats(); st.Entries != 0 {
			t.Fatalf("%s: a failed dispatch was cached: %+v", row.name, st)
		}
		if load := ms.TMLoad()[tmID]; load != 0 {
			t.Fatalf("%s: in-flight slots leaked: %d", row.name, load)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := ms.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
		done <- err
	}()
	replyOnce(t, ms, tmID, "fine")
	if err := <-done; err != nil {
		t.Fatalf("a well-formed reply after the malformed ones: %v", err)
	}
}

// replyOnce consumes one task from the TM queue and answers it OK with
// the given output.
func replyOnce(t *testing.T, ms *core.Service, tmID, output string) {
	t.Helper()
	msg, ok := ms.Broker().PullCtx(context.Background(), taskmanager.TaskQueue(tmID), 2*time.Second)
	if !ok {
		t.Fatal("no task arrived on the TM queue")
	}
	task, err := taskmanager.DecodeTask(msg.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := taskmanager.EncodeReply(taskmanager.Reply{TaskID: task.ID, OK: true, Output: output, InvocationMicros: 1})
	if err != nil {
		t.Fatal(err)
	}
	ms.Broker().Reply(msg, body)
}

var waitForMu sync.Mutex // serialize t.Fatal across waiters

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitForMu.Lock()
	defer waitForMu.Unlock()
	t.Fatal("condition not met in time")
}
