package core_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/servable"
	"repro/internal/store"
)

// Crash-recovery coverage for the durable store seam (durable.go +
// internal/store): a service killed without a clean shutdown must come
// back with exactly the state it had — checked by fingerprint across
// random mutation interleavings, a torn WAL tail, and a full-testbed
// restart with live deployments.

// openRecovered boots a service over the store directory and replays
// whatever is there.
func openRecovered(t *testing.T, dir string, compactEvery int) (*core.Service, store.RecoveryInfo) {
	t.Helper()
	ms := unrecovered(t, dir, compactEvery)
	info, err := ms.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return ms, info
}

// TestRecoveryRandomInterleaving is the property-style check: random
// interleavings of repository mutations (publish, metadata update,
// unpublish, autoscale policy, tenant quota and binding, forced
// checkpoints) from four goroutines at once, against a compaction
// threshold of five records, interrupted by kill-and-recover cycles.
// After every cycle the recovered service must fingerprint-identical to
// the one that was killed — the live pre-kill service is the shadow
// copy.
func TestRecoveryRandomInterleaving(t *testing.T) {
	const writers = 4
	for _, seed := range []int64{1, 7, 42, 4242} {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			// A tiny compaction threshold makes checkpoints race the
			// mutation stream.
			ms, w := unrecoveredStore(t, dir, 5)
			if _, err := ms.Recover(); err != nil {
				t.Fatal(err)
			}

			priorities := []string{"high", "normal", "low"}
			// Each writer has its own rng and publishes under its own
			// names, so its updates and unpublishes find their servables.
			mutate := func(rng *rand.Rand, g int, known *[]string) error {
				publish := func(pkg *servable.Package) error {
					pkg.Doc.Publication.Name += "-" + strconv.Itoa(g)
					id, err := ms.Publish(context.Background(), core.Anonymous, pkg)
					*known = appendUnique(*known, id)
					return err
				}
				switch rng.Intn(8) {
				case 0:
					return publish(servable.NoopPackage())
				case 1:
					return publish(servable.MatminerUtilPackage())
				case 2:
					if len(*known) == 0 {
						return nil
					}
					id := (*known)[rng.Intn(len(*known))]
					title := time.Duration(rng.Int63n(1 << 20)).String()
					return ms.UpdateMetadata(core.Anonymous, id, func(p *schema.Publication) {
						p.Title = "edited " + title
					})
				case 3:
					if len(*known) == 0 {
						return nil
					}
					id := (*known)[rng.Intn(len(*known))]
					p := core.AutoscalePolicy{Enabled: true, MinReplicas: 1, MaxReplicas: 2 + rng.Intn(8), TargetLoad: 2}
					return ms.SetAutoscalePolicy(core.Anonymous, id, p)
				case 4:
					// Unpublish rarely, so the repository keeps growing.
					if len(*known) < 2 || rng.Intn(4) != 0 {
						return nil
					}
					i := rng.Intn(len(*known))
					id := (*known)[i]
					*known = append((*known)[:i], (*known)[i+1:]...)
					return ms.Unpublish(core.Anonymous, id)
				case 5:
					// A checkpoint between two mutations must never lose
					// the second one.
					if rng.Intn(3) != 0 {
						return nil
					}
					return ms.Checkpoint()
				case 6:
					// Tenants are shared between the writers: the last
					// quota set wins, live and replayed alike.
					tid := "tenant-" + strconv.Itoa(rng.Intn(4))
					q := auth.Quota{
						MaxInFlight: rng.Intn(8),
						RatePerSec:  float64(rng.Intn(50)),
						Priority:    priorities[rng.Intn(len(priorities))],
					}
					_, err := ms.SetTenantQuota(tid, q)
					return err
				default:
					return ms.BindTenant("urn:identity:test:user-"+strconv.Itoa(rng.Intn(6)),
						"tenant-"+strconv.Itoa(rng.Intn(4)))
				}
			}

			rngs := make([]*rand.Rand, writers)
			known := make([][]string, writers)
			for g := range rngs {
				rngs[g] = rand.New(rand.NewSource(seed*writers + int64(g)))
			}
			for cycle := 0; cycle < 3; cycle++ {
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 20; i++ {
							if err := mutate(rngs[g], g, &known[g]); err != nil {
								t.Errorf("writer %d: %v", g, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				want := ms.StateFingerprint()
				// Kill: no shutdown checkpoint, the store is simply
				// closed with its tail still in the log. Closing it
				// also stops its compaction goroutine — with a
				// threshold of 5 one is usually pending, and left
				// running it renames a checkpoint and truncates the
				// log while the next Recover reads them.
				ms.Close()
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				ms, w = unrecoveredStore(t, dir, 5)
				info, err := ms.Recover()
				if err != nil {
					t.Fatal(err)
				}
				if got := ms.StateFingerprint(); got != want {
					t.Fatalf("cycle %d (replayed=%d): recovered state differs\n--- want\n%s--- got\n%s", cycle, info.Replayed, want, got)
				}
			}
		})
	}
}

func appendUnique(ids []string, id string) []string {
	for _, have := range ids {
		if have == id {
			return ids
		}
	}
	return append(ids, id)
}

// TestRecoveryTornTail kills the service with a half-written final
// record (simulated by chopping bytes off the log). Recovery must drop
// exactly that record — state equals the moment before the last
// mutation — and report the truncation.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	ms, _ := openRecovered(t, dir, 0)

	if _, err := ms.Publish(context.Background(), core.Anonymous, servable.NoopPackage()); err != nil {
		t.Fatal(err)
	}
	id, err := ms.Publish(context.Background(), core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{Enabled: true, MinReplicas: 1, MaxReplicas: 4}); err != nil {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	// The mutation that will be torn.
	cifar, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Publish(context.Background(), core.Anonymous, cifar); err != nil {
		t.Fatal(err)
	}
	full := ms.StateFingerprint()
	if full == want {
		t.Fatal("test broken: last mutation did not change the fingerprint")
	}
	ms.Close()

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 {
		t.Fatalf("wal unexpectedly small: %d bytes", len(data))
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ms2, info := openRecovered(t, dir, 0)
	if !info.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("torn-tail recovery: want the state before the torn record\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestRecoveryTornTenantRecord tears the WAL mid-way through a tenant
// quota record: recovery must drop exactly that quota update — the
// tenant keeps its previous quota — and tolerate the truncation.
func TestRecoveryTornTenantRecord(t *testing.T) {
	dir := t.TempDir()
	ms, _ := openRecovered(t, dir, 0)

	if _, err := ms.SetTenantQuota("acme", auth.Quota{MaxInFlight: 2, RatePerSec: 5, Priority: "high"}); err != nil {
		t.Fatal(err)
	}
	ms.BindTenant("urn:identity:test:alice", "acme")
	want := ms.StateFingerprint()
	// The mutation that will be torn.
	if _, err := ms.SetTenantQuota("acme", auth.Quota{MaxInFlight: 99, Priority: "low"}); err != nil {
		t.Fatal(err)
	}
	if ms.StateFingerprint() == want {
		t.Fatal("test broken: quota update did not change the fingerprint")
	}
	ms.Close()

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ms2, info := openRecovered(t, dir, 0)
	if !info.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("torn tenant record: want the pre-tear quota back\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestRecoveryDurableTenancy is the identity-and-tenancy durability
// path end to end: quotas, identity bindings and user accounts set on
// an authenticated service, killed without a shutdown checkpoint, must
// replay byte-identically into an OPEN-mode service (its registry is
// fresh — nothing survives except through the WAL), report the right
// Durable flag, and — rebooted WITH auth — let the replayed account
// simply log in again and resolve to its tenant. A checkpoint lands
// between the two quota mutations so one arrives from the snapshot and
// the other from the log tail.
func TestRecoveryDurableTenancy(t *testing.T) {
	dir := t.TempDir()
	open := func(withAuth bool) (*core.Service, func()) {
		w, err := store.Open(store.Options{Dir: dir, Sync: false})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Registry: container.NewRegistry(), Store: w}
		if withAuth {
			as := auth.NewService(time.Hour)
			as.RegisterProvider("local")
			as.RegisterClient("dlhub", "DLHub Management Service", "dlhub:serve")
			cfg.Auth = as
			cfg.RequireAuth = true
			cfg.RunScope = "dlhub:serve"
			cfg.AuthClientID = "dlhub"
			cfg.AuthProvider = "local"
		}
		ms := core.New(cfg)
		if _, err := ms.Recover(); err != nil {
			t.Fatal(err)
		}
		return ms, func() { ms.Close(); w.Close() }
	}

	ms, done := open(true)
	if _, err := ms.SetTenantQuota("acme", auth.Quota{MaxInFlight: 3, RatePerSec: 5, Priority: "high"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.RegisterUser("", "alice", "hunter2", "Alice", "alice@example.org", "acme"); err != nil {
		t.Fatal(err)
	}
	// Checkpoint now: acme and alice arrive from the snapshot, beta from
	// the WAL tail behind it.
	if err := ms.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.SetTenantQuota("beta", auth.Quota{RatePerSec: 1, Priority: "low"}); err != nil {
		t.Fatal(err)
	}
	want := ms.StateFingerprint()
	done() // kill -9: no shutdown checkpoint

	// Recover in OPEN mode: core.New builds a fresh standalone registry,
	// so everything below exists only if the WAL + checkpoint carried it.
	ms2, done2 := open(false)
	if got := ms2.StateFingerprint(); got != want {
		t.Fatalf("open-mode recovery differs\n--- want\n%s--- got\n%s", want, got)
	}
	durable := map[string]bool{}
	for _, v := range ms2.TenantList() {
		durable[v.ID] = v.Durable
	}
	if !durable["acme"] || !durable["beta"] {
		t.Fatalf("recovered quotas not marked durable: %v", durable)
	}
	done2()

	// Recover WITH a fresh auth service: the replayed account logs in
	// again (tokens died with the old process — by design) and the token
	// resolves to the replayed tenant binding.
	ms3, done3 := open(true)
	defer done3()
	if got := ms3.StateFingerprint(); got != want {
		t.Fatalf("auth-mode recovery differs\n--- want\n%s--- got\n%s", want, got)
	}
	res, err := ms3.Login("", "alice", "hunter2")
	if err != nil {
		t.Fatalf("login after recovery: %v", err)
	}
	caller, err := ms3.ResolveCaller("Bearer " + res.AccessToken)
	if err != nil {
		t.Fatal(err)
	}
	if caller.Tenant != "acme" {
		t.Fatalf("recovered identity resolves to tenant %q, want acme", caller.Tenant)
	}
	// Strict mode holds after recovery: no bearer, no anonymous fallback.
	if _, err := ms3.ResolveCaller(""); err == nil {
		t.Fatal("RequireAuth service accepted an empty bearer after recovery")
	}
	if _, err := ms3.Login("", "alice", "wrong"); err == nil {
		t.Fatal("login accepted a wrong password after recovery")
	}
}

// TestRestartMSRecoversDeployments drives the full testbed path the
// scenario harness's restart_ms fault uses: live TMs, placements,
// scaled replicas and a drain mark, then a Management Service kill and
// recovery. RestartMS itself fails on any fingerprint divergence; on
// top of that the recovered service must still SERVE from the
// recovered placements, and the drain mark must still gate rejoin.
func TestRestartMSRecoversDeployments(t *testing.T) {
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.AddTM("cooley-tm-2", 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	id, err := tb.MS.Publish(ctx, core.Anonymous, servable.MatminerUtilPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.DeployTo(ctx, core.Anonymous, id, 2, "parsl", "cooley-tm-1"); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.DeployTo(ctx, core.Anonymous, id, 2, "parsl", "cooley-tm-2"); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Scale(ctx, core.Anonymous, id, 3, "parsl"); err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	if _, err := tb.MS.DrainTM(drainCtx, "cooley-tm-2"); err != nil {
		cancel()
		t.Fatal(err)
	}
	cancel()

	// Kill the Management Service and recover from the WAL; RestartMS
	// fails the test by itself if the recovered fingerprint differs.
	if err := tb.RestartMS(); err != nil {
		t.Fatal(err)
	}

	res, err := tb.Service().Run(ctx, core.Anonymous, id, "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatalf("run after recovery: %v", err)
	}
	if !res.OK {
		t.Fatalf("run after recovery not OK: %s", res.Error)
	}
	// The drain mark survived the restart: rejoin must be meaningful
	// (it errors on a TM that is not draining).
	if err := tb.Service().RejoinTM(ctx, "cooley-tm-2"); err != nil {
		t.Fatalf("rejoin after recovery: %v", err)
	}
}

// TestRestartMSReplaysDeregister: a deregistration is durable state —
// the placements it abandoned must stay gone across a kill and recovery.
// Replay runs before any Task Manager registers, and used to skip the
// removal for exactly that reason, so the recovered service routed to
// (and fingerprinted) placements the live one had dropped. RestartMS
// fails on the fingerprint divergence by itself.
func TestRestartMSReplaysDeregister(t *testing.T) {
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.AddTM("cooley-tm-2", 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.WaitForTM(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := tb.MS.Publish(ctx, core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []string{"cooley-tm-1", "cooley-tm-2"} {
		if err := tb.MS.DeployTo(ctx, core.Anonymous, id, 1, "parsl", tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.MS.DeregisterTM("cooley-tm-2"); err != nil {
		t.Fatal(err)
	}
	if err := tb.RestartMS(); err != nil {
		t.Fatal(err)
	}
	if placed, err := tb.Service().ServablePlacements(core.Anonymous, id); err != nil || len(placed) != 1 || placed[0] != "cooley-tm-1" {
		t.Fatalf("placements after recovery = %v, %v; want [cooley-tm-1]", placed, err)
	}
}
