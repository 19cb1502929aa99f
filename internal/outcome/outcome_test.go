package outcome

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

func newTestTable(ttl time.Duration, max int) (*Table[string, int], *testClock) {
	t := New[string, int](ttl, max, 0)
	clock := &testClock{now: time.Unix(1_000_000, 0)}
	t.Now = clock.read
	return t, clock
}

// mustClaim leads key and requires want.
func mustClaim(t *testing.T, tab *Table[string, int], key string, want Claim) *Entry[string, int] {
	t.Helper()
	e, got := tab.Lead(key, "", 0)
	if got != want {
		t.Fatalf("lead %q: claim %d, want %d", key, got, want)
	}
	return e
}

func never(*Entry[string, int]) bool { return false }

// TestOutcomesLeaderPanicIsAbandoned: a leader that unwinds without
// finishing — a panic, recovered further up — is finished with the error
// its deferred Abandon names: its followers get that error, nothing is
// kept, and the next lookup leads afresh.
func TestOutcomesLeaderPanicIsAbandoned(t *testing.T) {
	tab, _ := newTestTable(time.Minute, 0)
	errAborted := errors.New("execution aborted")
	leader := mustClaim(t, tab, "k", ClaimLead)
	const followers = 4
	errs := make(chan error, followers)
	var wg sync.WaitGroup
	for range followers {
		e := mustClaim(t, tab, "k", ClaimFollow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, led, err := tab.Follow(context.Background(), e, never)
			if err == nil && !led {
				err = got.Err
			}
			errs <- err
		}()
	}
	func() {
		defer func() { recover() }() //nolint:errcheck — the panic is the test
		defer tab.Abandon(leader, errAborted)
		panic("dispatch blew up")
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, errAborted) {
			t.Fatalf("a follower of a panicked leader got %v, want the abandon error", err)
		}
	}
	if st := tab.Stats(); st.Kept != 0 || st.Entries != 0 {
		t.Fatalf("a panicked execution was kept: %+v", st)
	}
	mustClaim(t, tab, "k", ClaimLead)

	// Abandon after a Finish changes nothing.
	done := mustClaim(t, tab, "d", ClaimLead)
	tab.Finish(done, 7, nil, true, 0)
	tab.Abandon(done, errAborted)
	if e := mustClaim(t, tab, "d", ClaimKept); e.Val != 7 || e.Err != nil {
		t.Fatalf("Abandon overwrote a finished outcome: %d, %v", e.Val, e.Err)
	}
}

// TestOutcomesWindowCountsFromFinish: an outcome is kept for the TTL
// after it finished, however long its execution ran; an execution in
// flight never expires.
func TestOutcomesWindowCountsFromFinish(t *testing.T) {
	tab, clock := newTestTable(10*time.Minute, 0)
	slow := mustClaim(t, tab, "slow", ClaimLead)
	clock.advance(11 * time.Minute) // longer than the window, still running
	mustClaim(t, tab, "slow", ClaimFollow)
	tab.Finish(slow, 1, nil, true, 0)
	clock.advance(10 * time.Minute)
	mustClaim(t, tab, "slow", ClaimKept)
	clock.advance(time.Second)
	mustClaim(t, tab, "slow", ClaimLead)
	if st := tab.Stats(); st.Expirations != 1 {
		t.Fatalf("want one expiration, got %+v", st)
	}
}

// TestOutcomesSweepFromTheBack: any operation deletes the outcomes whose
// window has passed — a read of another key and a snapshot included —
// and leaves the live ones and those in flight.
func TestOutcomesSweepFromTheBack(t *testing.T) {
	tab, clock := newTestTable(time.Minute, 0)
	pending := mustClaim(t, tab, "pending", ClaimLead)
	for _, k := range []string{"a", "b", "c"} {
		tab.Finish(mustClaim(t, tab, k, ClaimLead), 1, nil, true, 0)
		clock.advance(20 * time.Second)
	}
	// a finished 60 s ago, b 40 s, c 20 s: a second more, and a is out.
	clock.advance(time.Second)
	if _, _, ok := tab.Get("c"); !ok {
		t.Fatal("c is within its window")
	}
	if st := tab.Stats(); st.Entries != 3 || st.Kept != 2 || st.Expirations != 1 {
		t.Fatalf("after a expired: %+v", st)
	}
	clock.advance(time.Hour)
	if st := tab.Stats(); st.Entries != 1 || st.Kept != 0 || st.Expirations != 3 {
		t.Fatalf("after all expired: %+v", st)
	}
	if _, done, ok := tab.Get("pending"); !ok || done != pending.done {
		t.Fatal("an execution in flight expired")
	}
}

// TestOutcomesExpiredAtLookup: a hit moves a kept outcome to the front,
// so the sweep, which stops at the first live outcome from the back, can
// leave it past its window behind a younger one. Its own lookup drops
// it, counts one expiration and leads afresh; the younger one stays.
func TestOutcomesExpiredAtLookup(t *testing.T) {
	tab, clock := newTestTable(time.Minute, 0)
	tab.Finish(mustClaim(t, tab, "old", ClaimLead), 1, nil, true, 0)
	clock.advance(30 * time.Second)
	tab.Finish(mustClaim(t, tab, "young", ClaimLead), 2, nil, true, 0)
	mustClaim(t, tab, "old", ClaimKept) // old is at the front now, young at the back
	clock.advance(31 * time.Second)     // old finished 61 s ago, young 31 s
	mustClaim(t, tab, "old", ClaimLead)
	if st := tab.Stats(); st.Expirations != 1 || st.Kept != 1 || st.Entries != 2 {
		t.Fatalf("after old expired at its lookup: %+v", st)
	}
	if e := mustClaim(t, tab, "young", ClaimKept); e.Val != 2 {
		t.Fatalf("young holds %d", e.Val)
	}
}

// TestOutcomesCapEvictsLeastRecentlyUsed: past the entry cap the kept
// outcome used longest ago goes, a lookup that hits counting as a use;
// executions in flight are not counted against the cap and never go.
func TestOutcomesCapEvictsLeastRecentlyUsed(t *testing.T) {
	tab, _ := newTestTable(0, 2)
	inFlight := mustClaim(t, tab, "in-flight", ClaimLead)
	for _, k := range []string{"a", "b"} {
		tab.Finish(mustClaim(t, tab, k, ClaimLead), 1, nil, true, 0)
	}
	mustClaim(t, tab, "a", ClaimKept) // b is now the least recently used
	tab.Finish(mustClaim(t, tab, "c", ClaimLead), 1, nil, true, 0)
	if _, _, ok := tab.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		mustClaim(t, tab, k, ClaimKept)
	}
	mustClaim(t, tab, "in-flight", ClaimFollow)
	tab.Finish(inFlight, 1, nil, true, 0)
	if st := tab.Stats(); st.Kept != 2 || st.Evictions != 2 {
		t.Fatalf("want 2 kept after 2 evictions, got %+v", st)
	}
}

// TestOutcomesFollowRetries: a follower whose outcome its retry rule
// rejects claims the key again — it follows the execution that led in
// the meantime, or leads one itself — and a follower's own ctx ends its
// wait.
func TestOutcomesFollowRetries(t *testing.T) {
	tab, _ := newTestTable(time.Minute, 0)
	retryErr := errors.New("leader canceled")
	retry := func(e *Entry[string, int]) bool { return errors.Is(e.Err, retryErr) }

	first := mustClaim(t, tab, "k", ClaimLead)
	follower := mustClaim(t, tab, "k", ClaimFollow)
	tab.Finish(first, 0, retryErr, false, 0)
	second := mustClaim(t, tab, "k", ClaimLead) // another request led first
	tab.Finish(second, 2, nil, true, 0)
	if got, led, err := tab.Follow(context.Background(), follower, retry); err != nil || led || got != second {
		t.Fatalf("follow after a rejected outcome: %p led %v err %v, want the newer execution %p", got, led, err, second)
	}

	third := mustClaim(t, tab, "j", ClaimLead)
	follower = mustClaim(t, tab, "j", ClaimFollow)
	tab.Finish(third, 0, retryErr, false, 0)
	got, led, err := tab.Follow(context.Background(), follower, retry)
	if err != nil || !led || got == third {
		t.Fatalf("follow with nothing newer: led %v err %v, want a new entry to lead", led, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tab.Follow(ctx, mustClaim(t, tab, "j", ClaimFollow), retry); !errors.Is(err, context.Canceled) {
		t.Fatalf("a follower's canceled ctx: %v", err)
	}
}

// TestOutcomesForgetGroup: forgetting a group drops its kept outcomes
// and unregisters its executions in flight — their followers still get
// the outcome, it is not kept, and the next lookup leads — and leaves
// other groups alone.
func TestOutcomesForgetGroup(t *testing.T) {
	tab := New[string, int](0, 0, 0)
	kept1, _ := tab.Lead("kept", "g", 0)
	tab.Finish(kept1, 1, nil, true, 0)
	flying, _ := tab.Lead("flying", "g", 0)
	follower, _ := tab.Lead("flying", "g", 0)
	other, _ := tab.Lead("other", "h", 0)
	tab.Finish(other, 3, nil, true, 0)
	if n := tab.Forget("g"); n != 1 {
		t.Fatalf("Forget counted %d kept outcomes, want 1", n)
	}
	tab.Finish(flying, 2, nil, true, 0)
	if got, _, err := tab.Follow(context.Background(), follower, never); err != nil || got.Val != 2 {
		t.Fatalf("a follower of a forgotten execution got %v, %v", got, err)
	}
	for key, want := range map[string]Claim{"kept": ClaimLead, "flying": ClaimLead, "other": ClaimKept} {
		if _, got := tab.Lead(key, "g", 0); got != want {
			t.Fatalf("%s after Forget: claim %d, want %d", key, got, want)
		}
	}
	if n := tab.ForgetAll(); n != 1 {
		t.Fatalf("ForgetAll counted %d kept outcomes, want 1", n)
	}
	if st := tab.Stats(); st.Entries != 0 || st.Kept != 0 {
		t.Fatalf("after ForgetAll: %+v", st)
	}
}
