package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// testClock is a table clock the test moves by hand.
type testClock struct{ now time.Time }

func (c *testClock) read() time.Time         { return c.now }
func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestOutcomes(ttl time.Duration, max int) (*outcomes[string, int], *testClock) {
	t := newOutcomes[string, int](ttl, max, 0)
	clock := &testClock{now: time.Unix(1_000_000, 0)}
	t.now = clock.read
	return t, clock
}

// mustClaim leads key and requires want.
func mustClaim(t *testing.T, tab *outcomes[string, int], key string, want claim) *outcome[string, int] {
	t.Helper()
	e, got := tab.lead(key, "", 0)
	if got != want {
		t.Fatalf("lead %q: claim %d, want %d", key, got, want)
	}
	return e
}

func never(*outcome[string, int]) bool { return false }

// TestOutcomesLeaderPanicIsInternal: a leader that unwinds without
// finishing — a panic, recovered further up — is finished as internal
// by its deferred abandon: its followers get that error, nothing is
// kept, and the next lookup leads afresh.
func TestOutcomesLeaderPanicIsInternal(t *testing.T) {
	tab, _ := newTestOutcomes(time.Minute, 0)
	leader := mustClaim(t, tab, "k", claimLead)
	const followers = 4
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for range followers {
		e := mustClaim(t, tab, "k", claimFollow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, led, err := tab.follow(context.Background(), e, never)
			if err == nil && !led {
				err = got.err
			}
			errs <- err
		}()
	}
	func() {
		defer func() { recover() }() //nolint:errcheck — the panic is the test
		defer tab.abandon(leader)
		panic("dispatch blew up")
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("a follower of a panicked leader got %v, want internal", err)
		}
	}
	if st := tab.stats(); st.kept != 0 || st.entries != 0 {
		t.Fatalf("a panicked execution was kept: %+v", st)
	}
	mustClaim(t, tab, "k", claimLead)

	// abandon after a finish changes nothing.
	done := mustClaim(t, tab, "d", claimLead)
	tab.finish(done, 7, nil, true, 0)
	tab.abandon(done)
	if e := mustClaim(t, tab, "d", claimKept); e.val != 7 || e.err != nil {
		t.Fatalf("abandon overwrote a finished outcome: %d, %v", e.val, e.err)
	}
}

// TestOutcomesWindowCountsFromFinish: an outcome is kept for the TTL
// after it finished, however long its execution ran; an execution in
// flight never expires.
func TestOutcomesWindowCountsFromFinish(t *testing.T) {
	tab, clock := newTestOutcomes(10*time.Minute, 0)
	slow := mustClaim(t, tab, "slow", claimLead)
	clock.advance(11 * time.Minute) // longer than the window, still running
	mustClaim(t, tab, "slow", claimFollow)
	tab.finish(slow, 1, nil, true, 0)
	clock.advance(10 * time.Minute)
	mustClaim(t, tab, "slow", claimKept)
	clock.advance(time.Second)
	mustClaim(t, tab, "slow", claimLead)
	if st := tab.stats(); st.expirations != 1 {
		t.Fatalf("want one expiration, got %+v", st)
	}
}

// TestOutcomesSweepFromTheBack: any operation deletes the outcomes whose
// window has passed — a read of another key and a snapshot included —
// and leaves the live ones and those in flight.
func TestOutcomesSweepFromTheBack(t *testing.T) {
	tab, clock := newTestOutcomes(time.Minute, 0)
	pending := mustClaim(t, tab, "pending", claimLead)
	for _, k := range []string{"a", "b", "c"} {
		tab.finish(mustClaim(t, tab, k, claimLead), 1, nil, true, 0)
		clock.advance(20 * time.Second)
	}
	// a finished 60 s ago, b 40 s, c 20 s: a second more, and a is out.
	clock.advance(time.Second)
	if _, _, ok := tab.get("c"); !ok {
		t.Fatal("c is within its window")
	}
	if st := tab.stats(); st.entries != 3 || st.kept != 2 || st.expirations != 1 {
		t.Fatalf("after a expired: %+v", st)
	}
	clock.advance(time.Hour)
	if st := tab.stats(); st.entries != 1 || st.kept != 0 || st.expirations != 3 {
		t.Fatalf("after all expired: %+v", st)
	}
	if _, done, ok := tab.get("pending"); !ok || done != pending.done {
		t.Fatal("an execution in flight expired")
	}
}

// TestOutcomesCapEvictsLeastRecentlyUsed: past the entry cap the kept
// outcome used longest ago goes, a lookup that hits counting as a use;
// executions in flight are not counted against the cap and never go.
func TestOutcomesCapEvictsLeastRecentlyUsed(t *testing.T) {
	tab, _ := newTestOutcomes(0, 2)
	inFlight := mustClaim(t, tab, "in-flight", claimLead)
	for _, k := range []string{"a", "b"} {
		tab.finish(mustClaim(t, tab, k, claimLead), 1, nil, true, 0)
	}
	mustClaim(t, tab, "a", claimKept) // b is now the least recently used
	tab.finish(mustClaim(t, tab, "c", claimLead), 1, nil, true, 0)
	if _, _, ok := tab.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		mustClaim(t, tab, k, claimKept)
	}
	mustClaim(t, tab, "in-flight", claimFollow)
	tab.finish(inFlight, 1, nil, true, 0)
	if st := tab.stats(); st.kept != 2 || st.evictions != 2 {
		t.Fatalf("want 2 kept after 2 evictions, got %+v", st)
	}
}

// TestOutcomesFollowRetries: a follower whose outcome its retry rule
// rejects claims the key again — it follows the execution that led in
// the meantime, or leads one itself — and a follower's own ctx ends its
// wait.
func TestOutcomesFollowRetries(t *testing.T) {
	tab, _ := newTestOutcomes(time.Minute, 0)
	retryErr := errors.New("leader canceled")
	retry := func(e *outcome[string, int]) bool { return errors.Is(e.err, retryErr) }

	first := mustClaim(t, tab, "k", claimLead)
	follower := mustClaim(t, tab, "k", claimFollow)
	tab.finish(first, 0, retryErr, false, 0)
	second := mustClaim(t, tab, "k", claimLead) // another request led first
	tab.finish(second, 2, nil, true, 0)
	if got, led, err := tab.follow(context.Background(), follower, retry); err != nil || led || got != second {
		t.Fatalf("follow after a rejected outcome: %p led %v err %v, want the newer execution %p", got, led, err, second)
	}

	third := mustClaim(t, tab, "j", claimLead)
	follower = mustClaim(t, tab, "j", claimFollow)
	tab.finish(third, 0, retryErr, false, 0)
	got, led, err := tab.follow(context.Background(), follower, retry)
	if err != nil || !led || got == third {
		t.Fatalf("follow with nothing newer: led %v err %v, want a new entry to lead", led, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tab.follow(ctx, mustClaim(t, tab, "j", claimFollow), retry); !errors.Is(err, context.Canceled) {
		t.Fatalf("a follower's canceled ctx: %v", err)
	}
}

// TestOutcomesForgetGroup: forgetting a group drops its kept outcomes
// and unregisters its executions in flight — their followers still get
// the outcome, it is not kept, and the next lookup leads — and leaves
// other groups alone.
func TestOutcomesForgetGroup(t *testing.T) {
	tab := newOutcomes[string, int](0, 0, 0)
	kept1, _ := tab.lead("kept", "g", 0)
	tab.finish(kept1, 1, nil, true, 0)
	flying, _ := tab.lead("flying", "g", 0)
	other, _ := tab.lead("other", "h", 0)
	tab.finish(other, 3, nil, true, 0)
	if n := tab.forget("g"); n != 1 {
		t.Fatalf("forget counted %d kept outcomes, want 1", n)
	}
	tab.finish(flying, 2, nil, true, 0)
	<-flying.done
	if flying.val != 2 {
		t.Fatalf("followers of a forgotten execution got %d", flying.val)
	}
	for key, want := range map[string]claim{"kept": claimLead, "flying": claimLead, "other": claimKept} {
		if _, got := tab.lead(key, "g", 0); got != want {
			t.Fatalf("%s after forget: claim %d, want %d", key, got, want)
		}
	}
	if n := tab.forgetAll(); n != 1 {
		t.Fatalf("forgetAll counted %d kept outcomes, want 1", n)
	}
	if st := tab.stats(); st.entries != 0 || st.kept != 0 {
		t.Fatalf("after forgetAll: %+v", st)
	}
}
