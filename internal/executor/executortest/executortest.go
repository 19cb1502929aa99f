// Package executortest is the conformance test of the deployment
// lifecycle (executor.Fleet) as each serving system exposes it. The four
// executor packages' tests call Run with their constructor, so one table
// says what deploy, scale, redeploy, a failed deploy, undeploy and close
// mean for Parsl, TF-Serving, SageMaker and Clipper alike.
package executortest

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/servable"
)

// Subject is an executor built on executor.Fleet with connection type E.
type Subject[E any] interface {
	executor.Executor
	Pick(id string) (*executor.Endpoint[E], error)
	Release(ep *executor.Endpoint[E])
}

// Suite describes one serving system to Run.
type Suite[E any] struct {
	// New builds the executor on an empty cluster.
	New func(t *testing.T, cluster *k8s.Cluster, builder *container.Builder) Subject[E]
	// Package returns a servable the system can serve, published as the
	// given version; versions 1 and 2 must answer Input differently.
	Package func(t *testing.T, version int) *servable.Package
	Input   any
	// Replica is what one replica requests of a node, Fixed what New
	// itself occupies (Clipper's frontend pod): the failed-deploy case
	// sizes its one node to hold exactly two replicas.
	Replica, Fixed k8s.Resources
}

// site is one case's cluster and executor.
type site[E any] struct {
	cluster *k8s.Cluster
	ex      Subject[E]
	// pods and containers New left running, before any deploy.
	basePods, baseContainers int
}

func (s Suite[E]) site(t *testing.T, nodes int, perNode k8s.Resources) *site[E] {
	t.Helper()
	reg := container.NewRegistry()
	cluster := k8s.NewCluster(container.NewRuntime(reg), nodes, perNode)
	ex := s.New(t, cluster, container.NewBuilder(reg))
	t.Cleanup(ex.Close)
	return &site[E]{
		cluster:        cluster,
		ex:             ex,
		basePods:       len(cluster.PodsMatching(nil)),
		baseContainers: cluster.Runtime().Running(),
	}
}

// wantRunning fails unless exactly n replica pods, and as many
// containers, run beyond what New started.
func (st *site[E]) wantRunning(t *testing.T, when string, n int) {
	t.Helper()
	if got := len(st.cluster.PodsMatching(nil)) - st.basePods; got != n {
		t.Fatalf("%s: %d replica pods, want %d", when, got, n)
	}
	if got := st.cluster.Runtime().Running() - st.baseContainers; got != n {
		t.Fatalf("%s: %d replica containers running, want %d", when, got, n)
	}
}

// endpoints picks every endpoint of id once: with nothing in flight the
// least-busy pick is a plain rotation, and holding each pick until the
// end keeps it from being handed out twice.
func (st *site[E]) endpoints(t *testing.T, id string) map[*executor.Endpoint[E]]bool {
	t.Helper()
	seen := map[*executor.Endpoint[E]]bool{}
	for i := st.ex.Replicas(id); i > 0; i-- {
		ep, err := st.ex.Pick(id)
		if err != nil {
			t.Fatal(err)
		}
		defer st.ex.Release(ep)
		seen[ep] = true
	}
	if len(seen) != st.ex.Replicas(id) {
		t.Fatalf("picked %d distinct endpoints of %d replicas", len(seen), st.ex.Replicas(id))
	}
	return seen
}

// Value decodes a Result.Output for inspection: an executor that got
// its result from a pod hands the output on as the pod's bytes
// (executor.DecodeResult), and a test wants the value in them.
func Value(t testing.TB, out any) any {
	t.Helper()
	raw, ok := out.(json.RawMessage)
	if !ok {
		return out
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("output is not JSON: %v: %s", err, raw)
	}
	return v
}

func invoke[E any](t *testing.T, st *site[E], id string, input any) any {
	t.Helper()
	res, err := st.ex.Invoke(context.Background(), id, input)
	if err != nil {
		t.Fatal(err)
	}
	return Value(t, res.Output)
}

// Run runs every conformance case against s.
func Run[E any](t *testing.T, s Suite[E]) {
	roomy := k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024}

	t.Run("deploy then invoke", func(t *testing.T) {
		st := s.site(t, 2, roomy)
		pkg := s.Package(t, 1)
		if err := st.ex.Deploy(pkg, 2); err != nil {
			t.Fatal(err)
		}
		if got := st.ex.Replicas(pkg.Doc.ID); got != 2 {
			t.Fatalf("Replicas = %d, want 2", got)
		}
		st.wantRunning(t, "after deploy", 2)
		invoke(t, st, pkg.Doc.ID, s.Input)
	})

	t.Run("scale keeps surviving endpoints", func(t *testing.T) {
		st := s.site(t, 2, roomy)
		pkg := s.Package(t, 1)
		id := pkg.Doc.ID
		if err := st.ex.Deploy(pkg, 2); err != nil {
			t.Fatal(err)
		}
		before := st.endpoints(t, id)
		if err := st.ex.Scale(id, 4); err != nil {
			t.Fatal(err)
		}
		st.wantRunning(t, "after scale up", 4)
		grown := st.endpoints(t, id)
		for ep := range before {
			if !grown[ep] {
				t.Fatal("scale up redialed a pod that was already connected")
			}
		}
		if err := st.ex.Scale(id, 1); err != nil {
			t.Fatal(err)
		}
		st.wantRunning(t, "after scale down", 1)
		for ep := range st.endpoints(t, id) {
			if !grown[ep] {
				t.Fatal("scale down redialed the surviving pod")
			}
		}
		invoke(t, st, id, s.Input)
	})

	t.Run("redeploy", func(t *testing.T) {
		st := s.site(t, 2, roomy)
		v1 := s.Package(t, 1)
		id := v1.Doc.ID
		if err := st.ex.Deploy(v1, 1); err != nil {
			t.Fatal(err)
		}
		out1 := invoke(t, st, id, s.Input)
		before := st.endpoints(t, id)

		// The same image again is a scale.
		if err := st.ex.Deploy(s.Package(t, 1), 2); err != nil {
			t.Fatal(err)
		}
		st.wantRunning(t, "after redeploying the same image", 2)
		same := st.endpoints(t, id)
		for ep := range before {
			if !same[ep] {
				t.Fatal("redeploying the same image replaced a running pod")
			}
		}

		// A new version replaces every pod, at the asked replica count,
		// and is what answers from then on.
		if err := st.ex.Deploy(s.Package(t, 2), 2); err != nil {
			t.Fatal(err)
		}
		st.wantRunning(t, "after redeploying a new image", 2)
		if got := st.ex.Replicas(id); got != 2 {
			t.Fatalf("Replicas = %d after redeploy, want 2", got)
		}
		for ep := range st.endpoints(t, id) {
			if same[ep] {
				t.Fatal("a pod of the old version survived the redeploy")
			}
		}
		for _, pod := range st.cluster.PodsMatching(nil) {
			if pod.Spec.Labels["deployment"] != "" && !strings.HasSuffix(pod.Spec.Image, ":v2") {
				t.Fatalf("pod %s runs %s after version 2 was deployed", pod.Name, pod.Spec.Image)
			}
		}
		for i := 0; i < 2; i++ { // once per replica
			if out2 := invoke(t, st, id, s.Input); reflect.DeepEqual(out1, out2) {
				t.Fatalf("version 2 deployed, version 1 answered: %v", out2)
			}
		}
	})

	t.Run("failed deploy leaves nothing", func(t *testing.T) {
		two := k8s.Resources{MilliCPU: s.Fixed.MilliCPU + 2*s.Replica.MilliCPU, MemMB: s.Fixed.MemMB + 2*s.Replica.MemMB}
		st := s.site(t, 1, two)
		pkg := s.Package(t, 1)
		id := pkg.Doc.ID
		if err := st.ex.Deploy(pkg, 3); !errors.Is(err, k8s.ErrUnschedulable) {
			t.Fatalf("three replicas on a node for two: %v, want ErrUnschedulable", err)
		}
		st.wantRunning(t, "after the failed deploy", 0)
		if got := st.ex.Replicas(id); got != 0 {
			t.Fatalf("Replicas = %d after a failed deploy", got)
		}
		if err := st.ex.Undeploy(id); !errors.Is(err, executor.ErrNotDeployed) {
			t.Fatalf("Undeploy after a failed deploy: %v, want ErrNotDeployed", err)
		}
		if err := st.ex.Deploy(pkg, 2); err != nil {
			t.Fatalf("retry at two replicas: %v", err)
		}
		st.wantRunning(t, "after the retry", 2)

		// Undeploy frees the node: the same two fit again.
		if err := st.ex.Undeploy(id); err != nil {
			t.Fatal(err)
		}
		st.wantRunning(t, "after undeploy", 0)
		if _, err := st.ex.Invoke(context.Background(), id, s.Input); !errors.Is(err, executor.ErrNotDeployed) {
			t.Fatalf("Invoke after undeploy: %v, want ErrNotDeployed", err)
		}
		if err := st.ex.Deploy(pkg, 2); err != nil {
			t.Fatalf("deploy into the freed capacity: %v", err)
		}
		invoke(t, st, id, s.Input)
	})

	t.Run("unknown servable", func(t *testing.T) {
		st := s.site(t, 1, roomy)
		if _, err := st.ex.Invoke(context.Background(), "ghost", s.Input); !errors.Is(err, executor.ErrNotDeployed) {
			t.Fatalf("Invoke: %v, want ErrNotDeployed", err)
		}
		if err := st.ex.Scale("ghost", 2); !errors.Is(err, executor.ErrNotDeployed) {
			t.Fatalf("Scale: %v, want ErrNotDeployed", err)
		}
		if err := st.ex.Undeploy("ghost"); !errors.Is(err, executor.ErrNotDeployed) {
			t.Fatalf("Undeploy: %v, want ErrNotDeployed", err)
		}
		if got := st.ex.Replicas("ghost"); got != 0 {
			t.Fatalf("Replicas = %d", got)
		}
	})

	t.Run("close", func(t *testing.T) {
		st := s.site(t, 1, roomy)
		pkg := s.Package(t, 1)
		id := pkg.Doc.ID
		if err := st.ex.Deploy(pkg, 2); err != nil {
			t.Fatal(err)
		}
		st.ex.Close()
		if got := len(st.cluster.PodsMatching(nil)); got != 0 {
			t.Fatalf("%d pods still run after Close", got)
		}
		if got := st.cluster.Runtime().Running(); got != 0 {
			t.Fatalf("%d containers still run after Close", got)
		}
		if err := st.ex.Deploy(pkg, 1); !errors.Is(err, executor.ErrClosed) {
			t.Fatalf("Deploy after Close: %v, want ErrClosed", err)
		}
		if err := st.ex.Scale(id, 1); !errors.Is(err, executor.ErrClosed) {
			t.Fatalf("Scale after Close: %v, want ErrClosed", err)
		}
		if _, err := st.ex.Invoke(context.Background(), id, s.Input); !errors.Is(err, executor.ErrClosed) {
			t.Fatalf("Invoke after Close: %v, want ErrClosed", err)
		}
		if err := st.ex.Undeploy(id); !errors.Is(err, executor.ErrClosed) {
			t.Fatalf("Undeploy after Close: %v, want ErrClosed", err)
		}
		st.ex.Close() // a second Close does nothing
	})
}

// PythonPackage is a Suite.Package for systems that host Python
// functions: version 1 answers "hello world", version 2 the length of
// its input.
func PythonPackage(_ *testing.T, version int) *servable.Package {
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	pkg.Doc.Version = version
	if version > 1 {
		pkg.Doc.Servable.Entry = "test:length"
	}
	return pkg
}
