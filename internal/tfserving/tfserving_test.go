package tfserving

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
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

func testbed(t *testing.T) (*k8s.Cluster, *container.Builder) {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), 4, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	return cluster, container.NewBuilder(reg)
}

func cifarInput() []float32 {
	in := make([]float32, 32*32*3)
	for i := range in {
		in[i] = float32(i%11) / 11
	}
	return in
}

func newExec(t *testing.T, api API) *Executor {
	t.Helper()
	cluster, builder := testbed(t)
	e := New(cluster, builder, netsim.RTT(170*time.Microsecond, 0), api)
	t.Cleanup(e.Close)
	pkg, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Doc.ID = "dlhub/cifar10"
	if err := e.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGRPCInvoke(t *testing.T) {
	e := newExec(t, GRPC)
	res, err := e.Invoke(context.Background(), "dlhub/cifar10", cifarInput())
	if err != nil {
		t.Fatal(err)
	}
	preds, ok := executortest.Value(t, res.Output).([]any)
	if !ok || len(preds) != 5 {
		t.Fatalf("want top-5 predictions, got %s", res.Output)
	}
	if res.InferenceMicros <= 0 {
		t.Fatal("inference time should be positive")
	}
	if e.Replicas("dlhub/cifar10") != 2 {
		t.Fatalf("want 2 replicas, got %d", e.Replicas("dlhub/cifar10"))
	}
}

func TestRESTInvoke(t *testing.T) {
	e := newExec(t, REST)
	res, err := e.Invoke(context.Background(), "dlhub/cifar10", cifarInput())
	if err != nil {
		t.Fatal(err)
	}
	preds, ok := executortest.Value(t, res.Output).([]any)
	if !ok || len(preds) != 5 {
		t.Fatalf("want top-5 predictions, got %s", res.Output)
	}
}

func TestGRPCAndRESTAgree(t *testing.T) {
	g := newExec(t, GRPC)
	r := newExec(t, REST)
	in := cifarInput()
	resG, err := g.Invoke(context.Background(), "dlhub/cifar10", in)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := r.Invoke(context.Background(), "dlhub/cifar10", in)
	if err != nil {
		t.Fatal(err)
	}
	lg := executortest.Value(t, resG.Output).([]any)[0].(map[string]any)["label"]
	lr := executortest.Value(t, resR.Output).([]any)[0].(map[string]any)["label"]
	if lg != lr {
		t.Fatalf("APIs must serve the same model: %v vs %v", lg, lr)
	}
}

// TestInvokeRawPayload: the Task Manager hands an executor the request
// payload as bytes; this one converts them itself, straight into the
// tensor each API sends.
func TestInvokeRawPayload(t *testing.T) {
	in := cifarInput()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, api := range []API{GRPC, REST} {
		e := newExec(t, api)
		want, err := e.Invoke(context.Background(), "dlhub/cifar10", in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Invoke(context.Background(), "dlhub/cifar10", json.RawMessage(data))
		if err != nil {
			t.Fatalf("%s on raw bytes: %v", api, err)
		}
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("%s: raw bytes gave %v, the value %v", api, got.Output, want.Output)
		}
		if _, err := e.Invoke(context.Background(), "dlhub/cifar10", json.RawMessage(`["x"]`)); !errors.Is(err, servable.ErrBadInput) {
			t.Fatalf("%s: a non-numeric payload should be ErrBadInput, got %v", api, err)
		}
	}
}

func TestInvokeNotDeployed(t *testing.T) {
	cluster, builder := testbed(t)
	e := New(cluster, builder, netsim.Profile{}, GRPC)
	defer e.Close()
	if _, err := e.Invoke(context.Background(), "ghost", cifarInput()); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
}

func TestCannotServeNonTFModels(t *testing.T) {
	cluster, builder := testbed(t)
	e := New(cluster, builder, netsim.Profile{}, GRPC)
	defer e.Close()
	pkg := servable.MatminerUtilPackage() // python_function
	pkg.Doc.ID = "dlhub/util"
	if err := e.Deploy(pkg, 1); err == nil {
		t.Fatal("python functions cannot be exported as TF servables")
	}
}

func TestScale(t *testing.T) {
	e := newExec(t, GRPC)
	if err := e.Scale("dlhub/cifar10", 5); err != nil {
		t.Fatal(err)
	}
	if e.Replicas("dlhub/cifar10") != 5 {
		t.Fatalf("want 5, got %d", e.Replicas("dlhub/cifar10"))
	}
	if err := e.Scale("ghost", 2); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed, got %v", err)
	}
}

func TestUndeploy(t *testing.T) {
	e := newExec(t, GRPC)
	if err := e.Undeploy("dlhub/cifar10"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke(context.Background(), "dlhub/cifar10", cifarInput()); !errors.Is(err, executor.ErrNotDeployed) {
		t.Fatalf("want not deployed after undeploy, got %v", err)
	}
}

func TestGRPCFasterThanREST(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	g := newExec(t, GRPC)
	r := newExec(t, REST)
	in := cifarInput()
	ctx := context.Background()
	// Warm up.
	g.Invoke(ctx, "dlhub/cifar10", in) //nolint:errcheck
	r.Invoke(ctx, "dlhub/cifar10", in) //nolint:errcheck

	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := g.Invoke(ctx, "dlhub/cifar10", in); err != nil {
			t.Fatal(err)
		}
	}
	grpcTime := time.Since(start)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := r.Invoke(ctx, "dlhub/cifar10", in); err != nil {
			t.Fatal(err)
		}
	}
	restTime := time.Since(start)
	// The paper: "gRPC leads to slightly better performance than REST
	// due to the overhead of the HTTP protocol."
	if grpcTime >= restTime {
		t.Logf("warning: grpc=%v rest=%v (expected grpc < rest; timing noise possible)", grpcTime, restTime)
	}
}

// TestConformance: both APIs keep the shared deployment lifecycle.
// Version 2 is the same network from another seed.
func TestConformance(t *testing.T) {
	for _, api := range []API{GRPC, REST} {
		t.Run(string(api), func(t *testing.T) {
			executortest.Run(t, executortest.Suite[endpoint]{
				New: func(t *testing.T, cluster *k8s.Cluster, builder *container.Builder) executortest.Subject[endpoint] {
					return New(cluster, builder, netsim.RTT(170*time.Microsecond, 0), api)
				},
				Package: func(t *testing.T, version int) *servable.Package {
					pkg, err := servable.CIFAR10Package(int64(version))
					if err != nil {
						t.Fatal(err)
					}
					pkg.Doc.ID = "dlhub/cifar10"
					pkg.Doc.Version = version
					return pkg
				},
				Input:   cifarInput(),
				Replica: k8s.Resources{MilliCPU: 2000, MemMB: 4096},
			})
		})
	}
}
