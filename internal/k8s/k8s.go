// Package k8s is a miniature Kubernetes: the substrate under PetrelKube,
// the 14-node cluster of §V-A. It supplies exactly the control-plane
// behaviour the paper's experiments exercise:
//
//   - Nodes with CPU/memory capacity (two E5-2670s ≈ 32 hyperthreads,
//     128 GB RAM per node);
//   - Pods running containers via the container.Runtime;
//   - Deployments with a replica count, reconciled by a controller —
//     scaling these is the Fig. 7 experiment ("the number of deployed
//     model replicas is increased");
//   - a least-allocated scheduler placing pods on nodes.
package k8s

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/simconst"
)

// Errors.
var (
	ErrPodNotFound        = errors.New("k8s: pod not found")
	ErrDeploymentNotFound = errors.New("k8s: deployment not found")
	ErrDeploymentExists   = errors.New("k8s: deployment already exists")
	ErrUnschedulable      = errors.New("k8s: no node with sufficient capacity")
)

// Resources describes CPU (millicores) and memory (MB).
type Resources struct {
	MilliCPU int64
	MemMB    int64
}

// Add returns r+o.
func (r Resources) Add(o Resources) Resources {
	return Resources{MilliCPU: r.MilliCPU + o.MilliCPU, MemMB: r.MemMB + o.MemMB}
}

// Fits reports whether r fits within capacity given used.
func (r Resources) Fits(capacity, used Resources) bool {
	return used.MilliCPU+r.MilliCPU <= capacity.MilliCPU && used.MemMB+r.MemMB <= capacity.MemMB
}

// Node is one cluster machine.
type Node struct {
	Name     string
	Capacity Resources

	mu   sync.Mutex
	used Resources
	pods map[string]bool
}

// PodPhase is a pod lifecycle phase.
type PodPhase string

// Pod phases.
const (
	PodPending PodPhase = "Pending"
	PodRunning PodPhase = "Running"
	PodFailed  PodPhase = "Failed"
	PodDeleted PodPhase = "Deleted"
)

// PodSpec describes a pod to run.
type PodSpec struct {
	Image    string // container image ref
	Requests Resources
	Labels   map[string]string
}

// Pod is one scheduled instance.
type Pod struct {
	Name string
	Spec PodSpec

	mu    sync.RWMutex
	phase PodPhase
	node  string
	ctr   *container.Container
}

// Phase returns the pod's lifecycle phase.
func (p *Pod) Phase() PodPhase {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.phase
}

// Container returns the running container (nil unless Running).
func (p *Pod) Container() *container.Container {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ctr
}

// Matches reports whether the pod carries all the given labels.
func (p *Pod) Matches(selector map[string]string) bool {
	for k, v := range selector {
		if p.Spec.Labels[k] != v {
			return false
		}
	}
	return true
}

// Deployment keeps Replicas pods of Template alive.
type Deployment struct {
	Name     string
	Template PodSpec

	mu       sync.Mutex
	replicas int
	serial   int64
}

// Replicas returns the desired replica count.
func (d *Deployment) Replicas() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replicas
}

// Cluster is the control plane plus its nodes.
type Cluster struct {
	runtime *container.Runtime

	mu          sync.RWMutex
	nodes       map[string]*Node
	pods        map[string]*Pod
	deployments map[string]*Deployment
}

// NewCluster creates a cluster with n homogeneous nodes backed by the
// given container runtime. PetrelKube's 14 nodes each have two E5-2670
// CPUs (32 hyperthreads = 32000 millicores) and 128 GB RAM.
func NewCluster(runtime *container.Runtime, n int, perNode Resources) *Cluster {
	c := &Cluster{
		runtime:     runtime,
		nodes:       make(map[string]*Node),
		pods:        make(map[string]*Pod),
		deployments: make(map[string]*Deployment),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%02d", i)
		c.nodes[name] = &Node{Name: name, Capacity: perNode, pods: make(map[string]bool)}
	}
	return c
}

// Runtime returns the container runtime the cluster's pods run on —
// where an executor registers the process behind its image entrypoint.
func (c *Cluster) Runtime() *container.Runtime { return c.runtime }

// schedule picks the least-allocated node (by CPU fraction) that fits.
// Caller must hold c.mu at least for reading nodes map.
func (c *Cluster) schedule(req Resources) (*Node, error) {
	var best *Node
	var bestFrac float64
	for _, n := range c.nodes {
		n.mu.Lock()
		fits := req.Fits(n.Capacity, n.used)
		frac := float64(n.used.MilliCPU) / float64(n.Capacity.MilliCPU)
		n.mu.Unlock()
		if !fits {
			continue
		}
		if best == nil || frac < bestFrac || (frac == bestFrac && n.Name < best.Name) {
			best, bestFrac = n, frac
		}
	}
	if best == nil {
		return nil, ErrUnschedulable
	}
	return best, nil
}

// RunPod schedules and starts one pod synchronously: schedule -> pod
// start latency -> container start (which itself pays the container
// start latency). Deployment reconciliation runs pods in parallel, so
// scaling to n replicas costs one start latency, not n.
func (c *Cluster) RunPod(name string, spec PodSpec) (*Pod, error) {
	c.mu.Lock()
	node, err := c.schedule(spec.Requests)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	node.mu.Lock()
	node.used = node.used.Add(spec.Requests)
	node.pods[name] = true
	node.mu.Unlock()

	pod := &Pod{Name: name, Spec: spec, phase: PodPending, node: node.Name}
	c.pods[name] = pod
	c.mu.Unlock()

	time.Sleep(simconst.D(simconst.PodStartLatency))
	ctr, err := c.runtime.Run(spec.Image)
	if err != nil {
		pod.mu.Lock()
		pod.phase = PodFailed
		pod.mu.Unlock()
		c.releaseNode(node.Name, name, spec.Requests)
		return nil, fmt.Errorf("k8s: pod %s: %w", name, err)
	}
	pod.mu.Lock()
	pod.ctr = ctr
	pod.phase = PodRunning
	pod.mu.Unlock()
	return pod, nil
}

func (c *Cluster) releaseNode(nodeName, podName string, req Resources) {
	c.mu.RLock()
	node, ok := c.nodes[nodeName]
	c.mu.RUnlock()
	if !ok {
		return
	}
	node.mu.Lock()
	if node.pods[podName] {
		delete(node.pods, podName)
		node.used.MilliCPU -= req.MilliCPU
		node.used.MemMB -= req.MemMB
	}
	node.mu.Unlock()
}

// DeletePod stops a pod's container and frees its resources.
func (c *Cluster) DeletePod(name string) error {
	c.mu.Lock()
	pod, ok := c.pods[name]
	if ok {
		delete(c.pods, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrPodNotFound, name)
	}
	pod.mu.Lock()
	ctr := pod.ctr
	pod.phase = PodDeleted
	node := pod.node
	pod.mu.Unlock()
	if ctr != nil {
		c.runtime.Stop(ctr.ID) //nolint:errcheck — stopping a failed container is fine
	}
	c.releaseNode(node, name, pod.Spec.Requests)
	return nil
}

// PodsMatching returns running pods carrying all selector labels,
// sorted by name.
func (c *Cluster) PodsMatching(selector map[string]string) []*Pod {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Pod
	for _, p := range c.pods {
		if p.Phase() == PodRunning && p.Matches(selector) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateDeployment creates a deployment and synchronously reconciles it
// to the requested replica count. A name in use is ErrDeploymentExists:
// a second record under it would restart the pod serial and overwrite
// the first one's live pods by name. When reconciling fails the
// deployment stays, with the pods that did start, for the caller to
// delete.
func (c *Cluster) CreateDeployment(name string, template PodSpec, replicas int) (*Deployment, error) {
	if replicas < 0 {
		return nil, fmt.Errorf("k8s: deployment %s: negative replica count %d", name, replicas)
	}
	if template.Labels == nil {
		template.Labels = map[string]string{}
	}
	template.Labels["deployment"] = name
	d := &Deployment{Name: name, Template: template, replicas: replicas}
	c.mu.Lock()
	if _, exists := c.deployments[name]; exists {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDeploymentExists, name)
	}
	c.deployments[name] = d
	c.mu.Unlock()
	if err := c.reconcile(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Scale changes a deployment's replica count and reconciles.
func (c *Cluster) Scale(name string, replicas int) error {
	if replicas < 0 {
		return fmt.Errorf("k8s: deployment %s: negative replica count %d", name, replicas)
	}
	c.mu.RLock()
	d, ok := c.deployments[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrDeploymentNotFound, name)
	}
	d.mu.Lock()
	d.replicas = replicas
	d.mu.Unlock()
	return c.reconcile(d)
}

// DeleteDeployment removes the deployment and its pods.
func (c *Cluster) DeleteDeployment(name string) error {
	c.mu.Lock()
	d, ok := c.deployments[name]
	if ok {
		delete(c.deployments, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrDeploymentNotFound, name)
	}
	d.mu.Lock()
	d.replicas = 0
	d.mu.Unlock()
	for _, p := range c.PodsMatching(map[string]string{"deployment": name}) {
		c.DeletePod(p.Name) //nolint:errcheck — concurrent deletes tolerated
	}
	return nil
}

// reconcile drives actual pods toward the desired replica count,
// starting/stopping pods in parallel (as kubelets do).
func (c *Cluster) reconcile(d *Deployment) error {
	current := c.PodsMatching(map[string]string{"deployment": d.Name})
	want := d.Replicas()
	if len(current) < want {
		var wg sync.WaitGroup
		errs := make([]error, want-len(current))
		for i := 0; i < want-len(current); i++ {
			d.mu.Lock()
			d.serial++
			podName := fmt.Sprintf("%s-%d", d.Name, d.serial)
			d.mu.Unlock()
			wg.Add(1)
			go func(i int, podName string) {
				defer wg.Done()
				_, errs[i] = c.RunPod(podName, d.Template)
			}(i, podName)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if len(current) > want {
		var wg sync.WaitGroup
		for _, p := range current[want:] {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				c.DeletePod(name) //nolint:errcheck
			}(p.Name)
		}
		wg.Wait()
	}
	return nil
}
