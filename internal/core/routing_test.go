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
	now := s.timeFunc()
	s.watcher.beat("tm-a")
	s.route.beat("tm-a", 0, false, now)
	s.watcher.beat("tm-b")
	s.route.beat("tm-b", 0, false, now)
	s.route.applyDeploy("sv", "tm-a", 2)

	s.repo.mu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if tm, err := s.route.pick("sv", nil, s.timeFunc(), s.cfg.TMStaleAfter); err != nil || tm != "tm-a" {
				return fmt.Errorf("pick = %q, %v", tm, err)
			}
			if got := len(s.TaskManagers()); got != 2 {
				return fmt.Errorf("TaskManagers = %d, want 2", got)
			}
			if got := len(s.LiveTaskManagers()); got != 2 {
				return fmt.Errorf("LiveTaskManagers = %d, want 2", got)
			}
			s.TMLoad()
			s.TMActive()
			s.Placements()
			s.DrainingTMs()
			s.FailoverStats()
			s.WatcherStats()
			release, err := s.admitRun(Anonymous, "sv", 1)
			if err != nil {
				return fmt.Errorf("admitRun: %v", err)
			}
			release()
			s.route.addInflight("tm-a", "sv", 1)
			s.route.subInflight("tm-a", "sv", 1)
			unwatch := s.watcher.watch("tm-a", func(error) {})
			unwatch()
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

// TestWatcherWaiterAccounting pins the O(#TMs) watcher design at the
// unit level: any number of in-flight waiters on one TM share one
// timer — the stats report (TMs, Waiters) accordingly, and registering
// a thousand waiters spawns no goroutines.
func TestWatcherWaiterAccounting(t *testing.T) {
	now := time.Now()
	lw := newLivenessWatcher(time.Minute, func() time.Time { return now })
	defer lw.stop()
	lw.beat("tm-1")

	const waiters = 1000
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	fired := 0
	unwatch := make([]func(), 0, waiters)
	for i := 0; i < waiters; i++ {
		unwatch = append(unwatch, lw.watch("tm-1", func(error) {
			mu.Lock()
			fired++
			mu.Unlock()
		}))
	}
	if d := runtime.NumGoroutine() - before; d > 5 {
		t.Fatalf("registering %d waiters spawned %d goroutines; the watcher must be timer-driven, O(#TMs)", waiters, d)
	}
	if st := lw.stats(); st.TMs != 1 || st.Waiters != waiters || st.Lost != 0 {
		t.Fatalf("stats = %+v, want {TMs:1 Waiters:%d Lost:0}", st, waiters)
	}

	// Half unwatch (dispatches completing normally)...
	for _, u := range unwatch[:waiters/2] {
		u()
	}
	if st := lw.stats(); st.Waiters != waiters/2 {
		t.Fatalf("after unwatch: Waiters = %d, want %d", st.Waiters, waiters/2)
	}
	// ...then the TM is lost: every remaining waiter is canceled.
	lw.markLost("tm-1")
	mu.Lock()
	got := fired
	mu.Unlock()
	if got != waiters/2 {
		t.Fatalf("markLost fanned to %d waiters, want %d", got, waiters/2)
	}
	if st := lw.stats(); st.Waiters != 0 || st.Lost != 1 {
		t.Fatalf("after markLost: stats = %+v, want {Waiters:0 Lost:1}", st)
	}
}

// TestWatcherExpiryFansOut drives the timer path with a real clock: a
// TM that stops beating expires once its window lapses, and the fan-out
// carries errTMLost so dispatchWatched's failover trigger fires.
func TestWatcherExpiryFansOut(t *testing.T) {
	lw := newLivenessWatcher(50*time.Millisecond, time.Now)
	defer lw.stop()
	lw.beat("tm-1")

	causes := make(chan error, 2)
	ctx1, cancel1 := context.WithCancelCause(context.Background())
	defer cancel1(nil)
	lw.watch("tm-1", cancel1)
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	defer cancel2(nil)
	lw.watch("tm-1", cancel2)
	go func() { <-ctx1.Done(); causes <- context.Cause(ctx1) }()
	go func() { <-ctx2.Done(); causes <- context.Cause(ctx2) }()

	for i := 0; i < 2; i++ {
		select {
		case cause := <-causes:
			if !errors.Is(cause, errTMLost) {
				t.Fatalf("waiter canceled with %v, want errTMLost", cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("watcher never expired the silent TM")
		}
	}
	// A late watch on the lost TM cancels immediately.
	ctx3, cancel3 := context.WithCancelCause(context.Background())
	defer cancel3(nil)
	lw.watch("tm-1", cancel3)
	select {
	case <-ctx3.Done():
		if !errors.Is(context.Cause(ctx3), errTMLost) {
			t.Fatalf("late watch canceled with %v, want errTMLost", context.Cause(ctx3))
		}
	case <-time.After(time.Second):
		t.Fatal("watch on an already-lost TM must cancel immediately")
	}
}

// TestWatcherBeatRearms verifies a beat between timer arm and expiry
// re-arms rather than losing the TM.
func TestWatcherBeatRearms(t *testing.T) {
	lw := newLivenessWatcher(80*time.Millisecond, time.Now)
	defer lw.stop()
	lw.beat("tm-1")
	for i := 0; i < 5; i++ {
		time.Sleep(40 * time.Millisecond)
		lw.beat("tm-1")
	}
	if st := lw.stats(); st.Lost != 0 {
		t.Fatalf("heartbeating TM marked lost: %+v", st)
	}
}

// --- routing hot-path benchmarks --------------------------------------------
// CI runs these with -benchmem: a regression in allocs/op on the pick
// or admission path shows up in the bench job's output.

func benchRoutingTable(tms, servables int) *routingTable {
	rt := newRoutingTable()
	now := time.Now()
	for i := 0; i < tms; i++ {
		rt.beat(fmt.Sprintf("tm-%d", i), 0, false, now)
	}
	for s := 0; s < servables; s++ {
		for i := 0; i < 3 && i < tms; i++ {
			rt.applyDeploy(fmt.Sprintf("sv-%d", s), fmt.Sprintf("tm-%d", (s+i)%tms), 2)
		}
	}
	return rt
}

func BenchmarkRoutingPick(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.pick(fmt.Sprintf("sv-%d", i%64), nil, now, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutingInflight(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.addInflight("tm-3", "sv-1", 1)
		rt.subInflight("tm-3", "sv-1", 1)
	}
}

// BenchmarkAdmitRun is one admission and its release for a tenant with
// both quota kinds set (never reached, so every iteration takes the
// whole path: token bucket, reservation, counters), from parallel
// callers — the tenant ledger's cost on an uncached run.
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
			release, err := s.admitRun(caller, "sv-1", 1)
			if err != nil {
				b.Error(err)
				return
			}
			release()
		}
	})
}

func BenchmarkRoutingPickParallel(b *testing.B) {
	rt := benchRoutingTable(16, 64)
	now := time.Now()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := rt.pick(fmt.Sprintf("sv-%d", i%64), nil, now, time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWatcherWatch(b *testing.B) {
	lw := newLivenessWatcher(time.Minute, time.Now)
	defer lw.stop()
	lw.beat("tm-1")
	cancel := func(error) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lw.watch("tm-1", cancel)()
	}
}
