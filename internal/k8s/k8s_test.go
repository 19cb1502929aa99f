package k8s

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000 // compress start latencies in tests
}

type nopProc struct{}

func (nopProc) Start(map[string][]byte, map[string]string) error { return nil }
func (nopProc) Stop()                                            {}

// newTestCluster builds a cluster with a registry carrying a "model"
// image whose entrypoint is a no-op process.
func newTestCluster(t *testing.T, nodes int, perNode Resources) *Cluster {
	t.Helper()
	reg := container.NewRegistry()
	b := container.NewBuilder(reg)
	if _, err := b.Build(container.BuildSpec{Name: "model", Entrypoint: "noop"}); err != nil {
		t.Fatal(err)
	}
	rt := container.NewRuntime(reg)
	rt.RegisterProcess("noop", func() container.Process { return nopProc{} })
	return NewCluster(rt, nodes, perNode)
}

func TestRunPodSchedulesAndRuns(t *testing.T) {
	c := newTestCluster(t, 2, Resources{MilliCPU: 4000, MemMB: 8192})
	pod, err := c.RunPod("p1", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000, MemMB: 512}})
	if err != nil {
		t.Fatal(err)
	}
	if pod.Phase() != PodRunning {
		t.Fatalf("pod should be running, is %s", pod.Phase())
	}
	if pod.node == "" {
		t.Fatal("pod should be bound to a node")
	}
	if pod.Container() == nil || c.runtime.Running() != 1 {
		t.Fatal("pod container should be running")
	}
}

func TestSchedulerPrefersLeastAllocated(t *testing.T) {
	c := newTestCluster(t, 2, Resources{MilliCPU: 4000, MemMB: 8192})
	p1, _ := c.RunPod("a", PodSpec{Image: "model", Requests: Resources{MilliCPU: 2000, MemMB: 100}})
	p2, err := c.RunPod("b", PodSpec{Image: "model", Requests: Resources{MilliCPU: 2000, MemMB: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if p1.node == p2.node {
		t.Fatalf("second pod should land on the empty node, both on %s", p1.node)
	}
}

func TestUnschedulable(t *testing.T) {
	c := newTestCluster(t, 1, Resources{MilliCPU: 1000, MemMB: 1024})
	if _, err := c.RunPod("big", PodSpec{Image: "model", Requests: Resources{MilliCPU: 2000}}); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("want unschedulable, got %v", err)
	}
	// Fill the node, then overflow.
	if _, err := c.RunPod("fit", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunPod("over", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1}}); !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("want unschedulable when full, got %v", err)
	}
}

func TestDeletePodFreesResources(t *testing.T) {
	c := newTestCluster(t, 1, Resources{MilliCPU: 1000, MemMB: 1024})
	if _, err := c.RunPod("p", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000, MemMB: 1024}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeletePod("p"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeletePod("p"); !errors.Is(err, ErrPodNotFound) {
		t.Fatalf("double delete should fail, got %v", err)
	}
	// Capacity is free again.
	if _, err := c.RunPod("p2", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000, MemMB: 1024}}); err != nil {
		t.Fatalf("resources not released: %v", err)
	}
}

func TestDeploymentReconcilesReplicas(t *testing.T) {
	c := newTestCluster(t, 4, Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	_, err := c.CreateDeployment("inception", PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000, MemMB: 1024}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	pods := c.PodsMatching(map[string]string{"deployment": "inception"})
	if len(pods) != 5 {
		t.Fatalf("want 5 replicas, got %d", len(pods))
	}

	// Scale up, as Fig. 7 does.
	if err := c.Scale("inception", 12); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "inception"})); got != 12 {
		t.Fatalf("want 12 after scale-up, got %d", got)
	}

	// Scale down.
	if err := c.Scale("inception", 3); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "inception"})); got != 3 {
		t.Fatalf("want 3 after scale-down, got %d", got)
	}

	if err := c.Scale("ghost", 1); !errors.Is(err, ErrDeploymentNotFound) {
		t.Fatalf("scaling unknown deployment should fail, got %v", err)
	}

	// A negative count is refused and stores nothing (it used to reach
	// reconcile and panic slicing the pod list).
	if err := c.Scale("inception", -3); err == nil {
		t.Fatal("scaling to a negative count should fail")
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "inception"})); got != 3 {
		t.Fatalf("want 3 after the refused scale, got %d", got)
	}
}

// TestCreateDeploymentRejectsDuplicateName: a second deployment under a
// live name used to replace the record and restart the pod serial, so
// its first pod overwrote the running "d-1" by name — one visible pod,
// two containers, the node charged twice.
func TestCreateDeploymentRejectsDuplicateName(t *testing.T) {
	c := newTestCluster(t, 1, Resources{MilliCPU: 4000, MemMB: 8192})
	spec := PodSpec{Image: "model", Requests: Resources{MilliCPU: 1000}}
	if _, err := c.CreateDeployment("d", spec, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDeployment("d", spec, 2); !errors.Is(err, ErrDeploymentExists) {
		t.Fatalf("want ErrDeploymentExists, got %v", err)
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "d"})); got != 1 {
		t.Fatalf("the refused create changed the pods: %d", got)
	}
	if got := c.Runtime().Running(); got != 1 {
		t.Fatalf("%d containers run for one pod", got)
	}
	if _, err := c.CreateDeployment("neg", spec, -1); err == nil {
		t.Fatal("a negative replica count should be refused")
	}
	// The name is free again once the deployment is deleted.
	if err := c.DeleteDeployment("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDeployment("d", spec, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteDeployment(t *testing.T) {
	c := newTestCluster(t, 2, Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	if _, err := c.CreateDeployment("d", PodSpec{Image: "model", Requests: Resources{MilliCPU: 100}}, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDeployment("d"); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "d"})); got != 0 {
		t.Fatalf("pods should be gone, got %d", got)
	}
	if err := c.DeleteDeployment("d"); !errors.Is(err, ErrDeploymentNotFound) {
		t.Fatalf("double delete should fail, got %v", err)
	}
}

func TestConcurrentScaling(t *testing.T) {
	c := newTestCluster(t, 4, Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	if _, err := c.CreateDeployment("d", PodSpec{Image: "model", Requests: Resources{MilliCPU: 100}}, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c.Scale("d", n) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	// Settle to a deterministic state.
	if err := c.Scale("d", 4); err != nil {
		t.Fatal(err)
	}
	if got := len(c.PodsMatching(map[string]string{"deployment": "d"})); got != 4 {
		t.Fatalf("after settling want 4, got %d", got)
	}
}

func TestResourceAccountingAcrossDeployments(t *testing.T) {
	c := newTestCluster(t, 2, Resources{MilliCPU: 4000, MemMB: 8192})
	if _, err := c.CreateDeployment("a", PodSpec{Image: "model", Requests: Resources{MilliCPU: 2000, MemMB: 1024}}, 2); err != nil {
		t.Fatal(err)
	}
	// 4000 of 8000 mCPU used; 3 more 2000m pods cannot all fit.
	_, err := c.CreateDeployment("b", PodSpec{Image: "model", Requests: Resources{MilliCPU: 2000, MemMB: 1024}}, 3)
	if err == nil {
		t.Fatal("overcommit should fail reconcile")
	}
	if !errors.Is(err, ErrUnschedulable) {
		t.Fatalf("want unschedulable in join, got %v", err)
	}
}

func TestPodsMatchingSelector(t *testing.T) {
	c := newTestCluster(t, 1, Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	c.RunPod("x", PodSpec{Image: "model", Labels: map[string]string{"app": "tf", "ver": "1"}}) //nolint:errcheck
	c.RunPod("y", PodSpec{Image: "model", Labels: map[string]string{"app": "tf", "ver": "2"}}) //nolint:errcheck
	c.RunPod("z", PodSpec{Image: "model", Labels: map[string]string{"app": "sk", "ver": "1"}}) //nolint:errcheck
	if got := len(c.PodsMatching(map[string]string{"app": "tf"})); got != 2 {
		t.Fatalf("want 2 tf pods, got %d", got)
	}
	if got := len(c.PodsMatching(map[string]string{"app": "tf", "ver": "2"})); got != 1 {
		t.Fatalf("want 1 tf/v2 pod, got %d", got)
	}
	if got := len(c.PodsMatching(nil)); got != 3 {
		t.Fatalf("empty selector matches all: got %d", got)
	}
}

func TestManyReplicasAcrossNodes(t *testing.T) {
	c := newTestCluster(t, 14, Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	if _, err := c.CreateDeployment("big", PodSpec{Image: "model", Requests: Resources{MilliCPU: 8000, MemMB: 4096}}, 32); err != nil {
		t.Fatal(err)
	}
	pods := c.PodsMatching(map[string]string{"deployment": "big"})
	if len(pods) != 32 {
		t.Fatalf("want 32 replicas, got %d", len(pods))
	}
	// Pods should be spread over many nodes.
	nodes := map[string]bool{}
	for _, p := range pods {
		nodes[p.node] = true
	}
	if len(nodes) < 8 {
		t.Fatalf("replicas should spread across nodes, got %d nodes", len(nodes))
	}
}

func TestResourcesFits(t *testing.T) {
	cap := Resources{MilliCPU: 100, MemMB: 100}
	if !(Resources{MilliCPU: 50, MemMB: 50}).Fits(cap, Resources{MilliCPU: 50, MemMB: 50}) {
		t.Fatal("exact fit should pass")
	}
	if (Resources{MilliCPU: 51, MemMB: 0}).Fits(cap, Resources{MilliCPU: 50}) {
		t.Fatal("cpu overflow should fail")
	}
	if (Resources{MemMB: 101}).Fits(cap, Resources{}) {
		t.Fatal("mem overflow should fail")
	}
}

func TestUniquePodNamesAcrossScales(t *testing.T) {
	c := newTestCluster(t, 2, Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	c.CreateDeployment("d", PodSpec{Image: "model", Requests: Resources{MilliCPU: 10}}, 3) //nolint:errcheck
	c.Scale("d", 1)                                                                        //nolint:errcheck
	c.Scale("d", 5)                                                                        //nolint:errcheck
	pods := c.PodsMatching(map[string]string{"deployment": "d"})
	seen := map[string]bool{}
	for _, p := range pods {
		if seen[p.Name] {
			t.Fatalf("duplicate pod name %s", p.Name)
		}
		seen[p.Name] = true
	}
	if len(pods) != 5 {
		t.Fatalf("want 5 pods, got %d", len(pods))
	}
	_ = fmt.Sprintf // keep fmt import if unused paths change
}
