package clipper

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/executor/executortest"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// cacheStats reads the frontend's (requests, hits) counters.
func cacheStats(s *System) (uint64, uint64) {
	s.frontend.mu.Lock()
	defer s.frontend.mu.Unlock()
	return s.frontend.requests, s.frontend.hits
}

func init() {
	simconst.Scale = 1000
}

func newSystem(t *testing.T) *System {
	t.Helper()
	reg := container.NewRegistry()
	builder := container.NewBuilder(reg)
	rt := container.NewRuntime(reg)
	cluster := k8s.NewCluster(rt, 4, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	sys, err := New(cluster, builder, rt, netsim.RTT(170*time.Microsecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestClipperServesModel(t *testing.T) {
	sys := newSystem(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := sys.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Invoke(context.Background(), "dlhub/util", "NaCl")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := executortest.Value(t, res.Output).(map[string]any)
	if !ok || len(m) != 2 {
		t.Fatalf("bad output %s", res.Output)
	}
	if sys.Replicas("dlhub/util") != 2 {
		t.Fatalf("want 2 replicas, got %d", sys.Replicas("dlhub/util"))
	}
}

func TestClipperCacheHits(t *testing.T) {
	sys := newSystem(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := sys.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	sys.SetCaching(true)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := sys.Invoke(ctx, "dlhub/util", "SiO2"); err != nil {
			t.Fatal(err)
		}
	}
	reqs, hits := cacheStats(sys)
	if reqs != 5 || hits != 4 {
		t.Fatalf("want 5 requests/4 hits, got %d/%d", reqs, hits)
	}
	// Different input misses.
	if _, err := sys.Invoke(ctx, "dlhub/util", "NaCl"); err != nil {
		t.Fatal(err)
	}
	_, hits2 := cacheStats(sys)
	if hits2 != 4 {
		t.Fatalf("different input should miss, hits=%d", hits2)
	}
}

func TestClipperCacheDisabledNoHits(t *testing.T) {
	sys := newSystem(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := sys.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	sys.SetCaching(false)
	for i := 0; i < 3; i++ {
		if _, err := sys.Invoke(context.Background(), "dlhub/util", "SiO2"); err != nil {
			t.Fatal(err)
		}
	}
	_, hits := cacheStats(sys)
	if hits != 0 {
		t.Fatalf("caching disabled should have 0 hits, got %d", hits)
	}
}

func TestClipperCachedStillPaysFrontendHop(t *testing.T) {
	// Structural property: cached responses are served by the frontend
	// pod, so the TM->frontend link is still traversed. We verify the
	// cache lives at the frontend (hits counted there), not at the
	// caller.
	sys := newSystem(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	sys.Deploy(pkg, 1) //nolint:errcheck
	sys.SetCaching(true)
	sys.Invoke(context.Background(), "dlhub/util", "MgO") //nolint:errcheck
	sys.Invoke(context.Background(), "dlhub/util", "MgO") //nolint:errcheck
	reqs, hits := cacheStats(sys)
	if reqs != 2 {
		t.Fatalf("frontend must see every request (got %d) — cache is in-cluster", reqs)
	}
	if hits != 1 {
		t.Fatalf("second identical request should hit, hits=%d", hits)
	}
}

func TestClipperUndeployAndErrors(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.Invoke(context.Background(), "ghost", "x"); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := sys.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Undeploy("dlhub/noop"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Invoke(context.Background(), "dlhub/noop", "x"); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed after undeploy, got %v", err)
	}
	if err := sys.Scale("dlhub/noop", 2); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed on scale, got %v", err)
	}
}

func TestClipperScale(t *testing.T) {
	sys := newSystem(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := sys.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Scale("dlhub/noop", 4); err != nil {
		t.Fatal(err)
	}
	if sys.Replicas("dlhub/noop") != 4 {
		t.Fatalf("want 4 replicas, got %d", sys.Replicas("dlhub/noop"))
	}
	// Still serves.
	if _, err := sys.Invoke(context.Background(), "dlhub/noop", "x"); err != nil {
		t.Fatal(err)
	}
}

// TestConformance: the model deployments behind the frontend keep the
// shared lifecycle; every invocation here goes through the frontend.
func TestConformance(t *testing.T) {
	executortest.Run(t, executortest.Suite[*rpc.Client]{
		New: func(t *testing.T, cluster *k8s.Cluster, builder *container.Builder) executortest.Subject[*rpc.Client] {
			sys, err := New(cluster, builder, cluster.Runtime(), netsim.RTT(170*time.Microsecond, 0))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		},
		Package: executortest.PythonPackage,
		Input:   "abc",
		Replica: k8s.Resources{MilliCPU: 1000, MemMB: 2048},
		Fixed:   k8s.Resources{MilliCPU: 2000, MemMB: 4096},
	})
}
