package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
)

// The lock split's contract: the routing table (TM registry,
// placements, in-flight counts, drain marks) has its own lock, so the
// service hot path — pick, admission, load reads — never contends
// with repository writes (Publish, UpdateMetadata, WAL-backed
// mutations). These tests pin that contract directly.

// TestRoutingReadsDoNotBlockOnRepositoryWrite is the held-write-lock
// canary: with the repository lock held exclusively (as a slow Publish
// or a checkpoint capture would), every routing-path operation must
// still complete. Before the split all of these queued behind one lock.
func TestRoutingReadsDoNotBlockOnRepositoryWrite(t *testing.T) {
	s := New(Config{Registry: container.NewRegistry(), TMStaleAfter: time.Minute})
	defer s.Close()
	s.route.beat("tm-a", 0)
	s.route.beat("tm-b", 0)
	s.route.place("sv", "tm-a", 2)

	s.repo.mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if tm, err := s.route.pick("sv", nil); err != nil || tm != "tm-a" {
				return fmt.Errorf("pick = %q, %v", tm, err)
			}
			if got := len(s.TaskManagers()); got != 2 {
				return fmt.Errorf("TaskManagers = %d, want 2", got)
			}
			if got := len(s.LiveTaskManagers()); got != 2 {
				return fmt.Errorf("LiveTaskManagers = %d, want 2", got)
			}
			s.route.snapshotTMs()
			s.route.routeSnapshot(&snapshot{})
			s.FailoverStats()
			s.WatcherStats()
			if err := s.admitRun(Anonymous, "sv", 1); err != nil {
				return fmt.Errorf("admitRun: %v", err)
			}
			s.route.unreserve(Anonymous.Tenant, "sv", 1)
			s.route.discharge(s.route.charge("tm-a", "sv", 1, func(error) {}))
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("routing-path operation blocked on the held repository write lock")
	}
	s.repo.mu.Unlock()
}

// TestWatcherWaiterAccounting pins the O(#TMs) dead-TM watch at the
// unit level: any number of in-flight waiters on one TM share one
// timer — the stats report (TMs, Waiters) accordingly, and registering
// a thousand waiters spawns no goroutines.
func TestWatcherWaiterAccounting(t *testing.T) {
	now := time.Now()
	rt := newRoutingTable(time.Minute, 0, func() time.Time { return now })
	defer rt.stop()
	rt.beat("tm-1", 0)

	const waiters = 1000
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	fired := 0
	refs := make([]dispatchRef, 0, waiters)
	for i := 0; i < waiters; i++ {
		refs = append(refs, rt.charge("tm-1", "", 0, func(error) {
			mu.Lock()
			fired++
			mu.Unlock()
		}))
	}
	if d := runtime.NumGoroutine() - before; d > 5 {
		t.Fatalf("registering %d waiters spawned %d goroutines; the watch must be timer-driven, O(#TMs)", waiters, d)
	}
	if st := rt.stats(); st.TMs != 1 || st.Waiters != waiters || st.Lost != 0 {
		t.Fatalf("stats = %+v, want {TMs:1 Waiters:%d Lost:0}", st, waiters)
	}
	if got := rt.snapshotTMs().load["tm-1"]; got != waiters {
		t.Fatalf("in-flight = %d, want %d: charge counts and registers in one step", got, waiters)
	}

	// Half discharge (dispatches completing normally)...
	for _, ref := range refs[:waiters/2] {
		rt.discharge(ref)
	}
	if st := rt.stats(); st.Waiters != waiters/2 {
		t.Fatalf("after discharge: Waiters = %d, want %d", st.Waiters, waiters/2)
	}
	// ...then the TM is removed: every remaining waiter is canceled, and
	// nothing of the TM is left to count
	// (TestDeregisterFreesLivenessRecord pins that over the API).
	rt.deregister("tm-1")
	mu.Lock()
	got := fired
	mu.Unlock()
	if got != waiters/2 {
		t.Fatalf("deregister fanned to %d waiters, want %d", got, waiters/2)
	}
	if st := rt.stats(); st != (WatcherStats{}) {
		t.Fatalf("after deregister: stats = %+v, want all zero", st)
	}
	// The canceled dispatches still discharge, against the record they
	// charged.
	for _, ref := range refs[waiters/2:] {
		rt.discharge(ref)
	}
}

// TestWatcherExpiryFansOut drives the timer path with a real clock: a
// TM that stops beating expires once its window lapses, and the fan-out
// carries errTMLost so dispatchTo's failover trigger fires.
func TestWatcherExpiryFansOut(t *testing.T) {
	rt := newRoutingTable(50*time.Millisecond, 0, time.Now)
	defer rt.stop()
	rt.beat("tm-1", 0)

	causes := make(chan error, 2)
	ctx1, cancel1 := context.WithCancelCause(context.Background())
	defer cancel1(nil)
	rt.charge("tm-1", "", 0, cancel1)
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	defer cancel2(nil)
	rt.charge("tm-1", "", 0, cancel2)
	go func() { <-ctx1.Done(); causes <- context.Cause(ctx1) }()
	go func() { <-ctx2.Done(); causes <- context.Cause(ctx2) }()

	for i := 0; i < 2; i++ {
		select {
		case cause := <-causes:
			if !errors.Is(cause, errTMLost) {
				t.Fatalf("waiter canceled with %v, want errTMLost", cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the liveness timer never expired the silent TM")
		}
	}
	if st := rt.stats(); st.TMs != 1 || st.Waiters != 0 || st.Lost != 1 {
		t.Fatalf("after expiry: stats = %+v, want {TMs:1 Waiters:0 Lost:1}", st)
	}
	// A late charge on the lost TM cancels immediately.
	ctx3, cancel3 := context.WithCancelCause(context.Background())
	defer cancel3(nil)
	rt.charge("tm-1", "", 0, cancel3)
	select {
	case <-ctx3.Done():
		if !errors.Is(context.Cause(ctx3), errTMLost) {
			t.Fatalf("late charge canceled with %v, want errTMLost", context.Cause(ctx3))
		}
	case <-time.After(time.Second):
		t.Fatal("charge on an already-lost TM must cancel immediately")
	}
	// So does one on a TM the table has never seen.
	ctx4, cancel4 := context.WithCancelCause(context.Background())
	defer cancel4(nil)
	rt.charge("tm-unknown", "", 0, cancel4)
	if !errors.Is(context.Cause(ctx4), errTMLost) {
		t.Fatalf("charge on an unknown TM: cause %v, want errTMLost", context.Cause(ctx4))
	}
	// And the routing filter reads the same predicate.
	if tm, err := rt.pick("", nil); err == nil {
		t.Fatalf("pick chose %q while the only TM is lost", tm)
	}
}

// TestWatcherBeatRearms verifies a beat between timer arm and expiry
// re-arms rather than losing the TM.
func TestWatcherBeatRearms(t *testing.T) {
	rt := newRoutingTable(80*time.Millisecond, 0, time.Now)
	defer rt.stop()
	rt.beat("tm-1", 0)
	for i := 0; i < 5; i++ {
		time.Sleep(40 * time.Millisecond)
		rt.beat("tm-1", 0)
	}
	if st := rt.stats(); st.Lost != 0 {
		t.Fatalf("heartbeating TM marked lost: %+v", st)
	}
}

// TestRoutingPickAllocs pins the routing decision at zero objects while
// its candidates fit the stack buffer (8): a pick over a full pool, one
// over a servable's placements, and one with an exclusion list.
func TestRoutingPickAllocs(t *testing.T) {
	rt := benchRoutingTable(8, 4)
	excluded := []string{"tm-1"}
	for name, pick := range map[string]func() (string, error){
		"pool":     func() (string, error) { return rt.pick("", nil) },
		"placed":   func() (string, error) { return rt.pick("sv-1", nil) },
		"excluded": func() (string, error) { return rt.pick("sv-1", excluded) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := pick(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("pick (%s) allocates %v objects per call, want 0", name, n)
		}
	}
	steps := []string{"sv-0", "sv-1"} // both placed on tm-1 and tm-2
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := rt.monolithTM(steps); !ok {
			t.Fatal("no common site")
		}
	}); n != 0 {
		t.Errorf("monolithTM allocates %v objects per call, want 0", n)
	}
}

// --- routing hot-path benchmarks --------------------------------------------
// CI runs these with -benchmem: a regression in allocs/op on the pick
// or admission path shows up in the bench job's output.

func benchRoutingTable(tms, servables int) *routingTable {
	rt := newRoutingTable(time.Minute, 0, time.Now)
	for i := 0; i < tms; i++ {
		rt.beat(fmt.Sprintf("tm-%d", i), 0)
	}
	for s := 0; s < servables; s++ {
		for i := 0; i < 3 && i < tms; i++ {
			rt.place(fmt.Sprintf("sv-%d", s), fmt.Sprintf("tm-%d", (s+i)%tms), 2)
		}
	}
	return rt
}

func BenchmarkRoutingPick(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	defer rt.stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.pick(fmt.Sprintf("sv-%d", i%64), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutingInflight(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	defer rt.stop()
	cancel := func(error) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.discharge(rt.charge("tm-3", "sv-1", 1, cancel))
	}
}

// BenchmarkAdmitRun is one admission and its release for a tenant with
// both quota kinds set (never reached, so every iteration takes the
// whole path: bounds, token bucket, reservation, counters), from
// parallel callers — admission's cost on an uncached run: one routing
// table critical section to reserve, one to release.
func BenchmarkAdmitRun(b *testing.B) {
	s := New(Config{Registry: container.NewRegistry()})
	defer s.Close()
	if _, err := s.SetTenantQuota("bench", auth.Quota{MaxInFlight: 1 << 20, RatePerSec: 1e12}); err != nil {
		b.Fatal(err)
	}
	caller := Caller{IdentityID: "urn:identity:local:bench", Tenant: "bench"}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := s.admitRun(caller, "sv-1", 1); err != nil {
				b.Error(err)
				return
			}
			s.route.unreserve(caller.Tenant, "sv-1", 1)
		}
	})
}

func BenchmarkRoutingPickParallel(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	defer rt.stop()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := rt.pick(fmt.Sprintf("sv-%d", i%64), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
