package executor

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/k8s"
	"repro/internal/netsim"
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
