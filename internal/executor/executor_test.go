package executor

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/pyruntime"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

// testbed assembles registry/runtime/cluster; NewParsl registers the
// IPP engine process itself.
func testbed(t *testing.T) (*k8s.Cluster, *container.Builder) {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), 4, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	return cluster, container.NewBuilder(reg)
}

func newParsl(t *testing.T) *Parsl {
	t.Helper()
	cluster, builder := testbed(t)
	p := NewParsl(cluster, builder, netsim.RTT(170*time.Microsecond, 0))
	t.Cleanup(p.Close)
	return p
}

func TestParslDeployAndInvokeNoop(t *testing.T) {
	p := newParsl(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	if p.Replicas("dlhub/noop") != 2 {
		t.Fatalf("want 2 replicas, got %d", p.Replicas("dlhub/noop"))
	}
	res, err := p.Invoke(context.Background(), "dlhub/noop", "hi")
	if err != nil {
		t.Fatal(err)
	}
	// The pod's encoding, handed on as bytes.
	if raw, ok := res.Output.(json.RawMessage); !ok || string(raw) != `"hello world"` {
		t.Fatalf("noop output wrong: %T %s", res.Output, res.Output)
	}
	if res.InferenceMicros < 0 {
		t.Fatal("inference time should be measured")
	}
}

func TestParslInvokeUndeployed(t *testing.T) {
	p := newParsl(t)
	if _, err := p.Invoke(context.Background(), "ghost", nil); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
	if err := p.Scale("ghost", 3); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want not deployed on scale, got %v", err)
	}
	if err := p.Undeploy("ghost"); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want not deployed on undeploy, got %v", err)
	}
}

func TestParslScaleUpDown(t *testing.T) {
	p := newParsl(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Scale("dlhub/util", 6); err != nil {
		t.Fatal(err)
	}
	if p.Replicas("dlhub/util") != 6 {
		t.Fatalf("want 6, got %d", p.Replicas("dlhub/util"))
	}
	if err := p.Scale("dlhub/util", 2); err != nil {
		t.Fatal(err)
	}
	if p.Replicas("dlhub/util") != 2 {
		t.Fatalf("want 2, got %d", p.Replicas("dlhub/util"))
	}
	// Still serves after rescale.
	res, err := p.Invoke(context.Background(), "dlhub/util", "SiO2")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(res.Output.(json.RawMessage), &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("SiO2 should have 2 elements: %v", m)
	}
}

func TestParslServableErrorPropagates(t *testing.T) {
	p := newParsl(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "dlhub/util", "NotAnElement99"); err == nil {
		t.Fatal("servable error should propagate to the caller")
	}
}

func TestParslConcurrentInvocationsLoadBalance(t *testing.T) {
	p := newParsl(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Invoke(context.Background(), "dlhub/noop", i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestParslUndeployStopsServing(t *testing.T) {
	p := newParsl(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Undeploy("dlhub/noop"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(context.Background(), "dlhub/noop", nil); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want not deployed after undeploy, got %v", err)
	}
}

func TestParslInvokeAfterClose(t *testing.T) {
	cluster, builder := testbed(t)
	p := NewParsl(cluster, builder, netsim.Profile{})
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Invoke(context.Background(), "dlhub/noop", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestParslCloseReleasesQueuedInvokes: invocations queued behind the
// router when Close runs all return, each with a result or ErrClosed,
// though their context never ends.
func TestParslCloseReleasesQueuedInvokes(t *testing.T) {
	p := newParsl(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	// At the paper's scale the router's 300 µs per invocation queues
	// most of the 32 behind it by the time Close runs.
	simconst.Scale = 1
	defer func() { simconst.Scale = 1000 }()
	const n = 32
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.Invoke(context.Background(), "dlhub/noop", "x")
			errs <- err
		}()
	}
	time.Sleep(2 * time.Millisecond)
	p.Close()
	deadline := time.After(3 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Invoke: %v, want a result or ErrClosed", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d invocations still waiting 3 s after Close", n-i, n)
		}
	}
}

// goroutines returns the process's goroutine count once it holds still,
// so goroutines an earlier test ended and that are still exiting do not
// count.
func goroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestParslRunsOnCallersGoroutine: an idle Parsl runs no goroutine, and
// an invocation runs on its caller's. While one waits in the servable,
// the process holds as many goroutines as while a bare engine call
// waits there: the router, the pick and the call add none.
func TestParslRunsOnCallersGoroutine(t *testing.T) {
	// The interpreter runs a body more than once per call to model
	// Python's speed: only the first run after arming holds.
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	pyruntime.Register("test:hold", func(any) (any, error) {
		if armed.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		return "ok", nil
	})
	cluster, builder := testbed(t)
	idle := goroutines()
	p := NewParsl(cluster, builder, netsim.Profile{})
	t.Cleanup(p.Close)
	if n := goroutines(); n != idle {
		t.Fatalf("NewParsl: %d goroutines, want %d", n, idle)
	}
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/hold"
	pkg.Doc.Servable.Entry = "test:hold"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	// inServable runs call on a goroutine of its own and counts the
	// process's goroutines while the call holds the servable.
	inServable := func(call func() error) int {
		errc := make(chan error, 1)
		armed.Store(true)
		go func() { errc <- call() }()
		<-entered
		n := goroutines()
		release <- struct{}{}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return n
	}
	invoke := func() error {
		_, err := p.Invoke(context.Background(), "dlhub/hold", "x")
		return err
	}
	inServable(invoke) // the engine's first call, so both below find it warm
	ep, err := p.Pick("dlhub/hold")
	if err != nil {
		t.Fatal(err)
	}
	bare := inServable(func() error {
		_, err := ep.Conn.Call(context.Background(), "run", []byte(`"x"`))
		return err
	})
	p.Release(ep)
	if via := inServable(invoke); via != bare {
		t.Fatalf("%d goroutines while an Invoke is in the servable, %d while a bare engine call is", via, bare)
	}
}

func TestParslContextCancellation(t *testing.T) {
	p := newParsl(t)
	pkg, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Doc.ID = "dlhub/cifar10"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	input := make([]float32, 32*32*3)
	if _, err := p.Invoke(ctx, "dlhub/cifar10", input); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestBuildServableImageContents(t *testing.T) {
	reg := container.NewRegistry()
	builder := container.NewBuilder(reg)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "u/util"
	pkg.Doc.Version = 3
	img, err := BuildServableImage(builder, pkg, ParslEntrypoint)
	if err != nil {
		t.Fatal(err)
	}
	if img.Ref() != "servables/matminer-util:v3" {
		t.Fatalf("image ref wrong: %s", img.Ref())
	}
	fs := img.Files()
	if _, ok := fs["/dlhub/doc.json"]; !ok {
		t.Fatal("doc.json missing from image")
	}
	if _, ok := fs["/usr/lib/python3/site-packages/dlhub_sdk/VERSION"]; !ok {
		t.Fatal("dlhub dependency layer missing")
	}
	if img.Labels["dlhub.servable"] != "u/util" {
		t.Fatalf("servable label wrong: %v", img.Labels)
	}
}

func TestPodServerMissingDoc(t *testing.T) {
	ps := &PodServer{}
	if err := ps.Start(map[string][]byte{}, nil); err == nil {
		t.Fatal("missing doc.json should fail")
	}
}

func TestDeployTwiceScalesInstead(t *testing.T) {
	p := newParsl(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := p.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Deploy(pkg, 3); err != nil {
		t.Fatal(err)
	}
	if p.Replicas("dlhub/noop") != 3 {
		t.Fatalf("second deploy should rescale to 3, got %d", p.Replicas("dlhub/noop"))
	}
}

// TestFleetConcurrentLifecycle drives deploy, scale, undeploy and invoke
// of one servable from many goroutines: whatever order they land in, no
// call may hang or corrupt the table, and Close must leave no pod behind.
func TestFleetConcurrentLifecycle(t *testing.T) {
	cluster, builder := testbed(t)
	p := NewParsl(cluster, builder, netsim.Profile{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				pkg := servable.NoopPackage()
				pkg.Doc.ID = "dlhub/noop"
				pkg.Doc.Version = 1 + (g+i)%2 // alternate scale and replace
				if err := p.Deploy(pkg, 1+i%3); err != nil {
					t.Errorf("deploy: %v", err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := p.Scale("dlhub/noop", 1+i%2); err != nil && !errors.Is(err, ErrNotDeployed) {
					t.Errorf("scale: %v", err)
				}
				if err := p.Undeploy("dlhub/noop"); err != nil && !errors.Is(err, ErrNotDeployed) {
					t.Errorf("undeploy: %v", err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// A pod may be hung up under the call; only a hang is a failure.
				p.Invoke(context.Background(), "dlhub/noop", "x") //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	p.Close()
	if pods := cluster.PodsMatching(nil); len(pods) != 0 {
		t.Fatalf("%d pods outlive Close", len(pods))
	}
	if n := cluster.Runtime().Running(); n != 0 {
		t.Fatalf("%d containers outlive Close", n)
	}
}
