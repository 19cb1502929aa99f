package sagemaker

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
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func newExec(t *testing.T) *Executor {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), 4, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	e := New(cluster, container.NewBuilder(reg), netsim.RTT(170*time.Microsecond, 0))
	t.Cleanup(e.Close)
	return e
}

func TestFlaskServesCIFAR(t *testing.T) {
	e := newExec(t)
	pkg, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Doc.ID = "dlhub/cifar10"
	if err := e.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 32*32*3)
	res, err := e.Invoke(context.Background(), "dlhub/cifar10", in)
	if err != nil {
		t.Fatal(err)
	}
	preds, ok := executortest.Value(t, res.Output).([]any)
	if !ok || len(preds) != 5 {
		t.Fatalf("want top-5, got %s", res.Output)
	}
	if e.Replicas("dlhub/cifar10") != 2 {
		t.Fatalf("want 2 replicas")
	}
}

func TestFlaskServesPythonFunctions(t *testing.T) {
	// Unlike TF-Serving, SageMaker's Flask app can host any servable.
	e := newExec(t)
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := e.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Invoke(context.Background(), "dlhub/util", "Fe2O3")
	if err != nil {
		t.Fatal(err)
	}
	if m := executortest.Value(t, res.Output).(map[string]any); len(m) != 2 {
		t.Fatalf("Fe2O3 should parse to 2 elements: %v", m)
	}
}

func TestFlaskErrors(t *testing.T) {
	e := newExec(t)
	if _, err := e.Invoke(context.Background(), "ghost", 1); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
	pkg := servable.MatminerUtilPackage()
	pkg.Doc.ID = "dlhub/util"
	if err := e.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	// Servable error surfaces as HTTP 500 -> error.
	if _, err := e.Invoke(context.Background(), "dlhub/util", 42.0); err == nil {
		t.Fatal("bad input should propagate as error")
	}
}

func TestScaleAndUndeploy(t *testing.T) {
	e := newExec(t)
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := e.Deploy(pkg, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Scale("dlhub/noop", 3); err != nil {
		t.Fatal(err)
	}
	if e.Replicas("dlhub/noop") != 3 {
		t.Fatalf("want 3, got %d", e.Replicas("dlhub/noop"))
	}
	if err := e.Undeploy("dlhub/noop"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke(context.Background(), "dlhub/noop", "x"); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
	if err := e.Scale("ghost", 1); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
}

func TestConformance(t *testing.T) {
	executortest.Run(t, executortest.Suite[endpoint]{
		New: func(t *testing.T, cluster *k8s.Cluster, builder *container.Builder) executortest.Subject[endpoint] {
			return New(cluster, builder, netsim.RTT(170*time.Microsecond, 0))
		},
		Package: executortest.PythonPackage,
		Input:   "abc",
		Replica: k8s.Resources{MilliCPU: 2000, MemMB: 4096},
	})
}
