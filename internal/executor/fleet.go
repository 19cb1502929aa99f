package executor

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/container"
	"repro/internal/k8s"
	"repro/internal/servable"
)

// Protocol is what one serving system adds to the shared deployment
// lifecycle: the process its containers run, and how a pod running it
// is dialed and hung up. E is the executor's own connection type.
type Protocol[E any] struct {
	// Prefix names the executor's Kubernetes deployments; it must
	// differ between executors that share a cluster.
	Prefix string
	// Entrypoint is the image entrypoint, Process the factory NewFleet
	// registers under it on the cluster's runtime.
	Entrypoint string
	Process    container.ProcessFactory
	// Requests is the resource request of one replica.
	Requests k8s.Resources
	// Dial connects to a running pod; Hangup releases what Dial made.
	Dial   func(pod *k8s.Pod) (E, error)
	Hangup func(E)
}

// Fleet is the deployment lifecycle every executor shares (§IV-C's
// executor model, stated once): it builds a servable's image, keeps a
// Kubernetes deployment of it at the requested replica count, holds one
// dialed endpoint per running pod, and hands invocations the least
// busy one. An executor embeds a Fleet — which gives it Deploy, Scale,
// Replicas, Undeploy and Close — and adds only its Protocol and Invoke.
//
// Deploying an ID that is already deployed scales it when the image is
// the one running and replaces the pods when it is not (a republished
// version); a deploy that fails part-way is rolled back whole.
type Fleet[E any] struct {
	cluster *k8s.Cluster
	builder *container.Builder
	proto   Protocol[E]

	// mu guards the table, every endpoint list and every in-flight
	// count. It is never held across a cluster call or a dial.
	mu     sync.Mutex
	deps   map[string]*deployment[E]
	closed bool
}

type deployment[E any] struct {
	// life serialises Deploy, Scale and Undeploy of one servable; name
	// and image are read and written under it.
	life  sync.Mutex
	name  string // Kubernetes deployment; "" until the first create
	image string // ref of the image its pods run

	eps []*Endpoint[E] // under Fleet.mu
	rr  int            // under Fleet.mu
}

// Endpoint is one dialed pod.
type Endpoint[E any] struct {
	Conn     E
	pod      string
	inflight int // under Fleet.mu
}

// NewFleet returns an empty fleet on cluster and registers the
// protocol's container process on the cluster's runtime.
func NewFleet[E any](cluster *k8s.Cluster, builder *container.Builder, proto Protocol[E]) *Fleet[E] {
	cluster.Runtime().RegisterProcess(proto.Entrypoint, proto.Process)
	return &Fleet[E]{cluster: cluster, builder: builder, proto: proto, deps: make(map[string]*deployment[E])}
}

// hold returns id's record with its lifecycle lock held, adding an empty
// record when create is set. A record removed while hold waited for it
// is looked up again. Without create, an empty record — one a Deploy
// added but has not locked yet — is not deployed.
func (f *Fleet[E]) hold(id string, create bool) (*deployment[E], error) {
	for {
		f.mu.Lock()
		d, err := f.lookup(id)
		if create && errors.Is(err, ErrNotDeployed) {
			d, err = &deployment[E]{}, nil
			f.deps[id] = d
		}
		f.mu.Unlock()
		if err != nil {
			return nil, err
		}

		d.life.Lock()
		f.mu.Lock()
		current := f.deps[id] == d
		f.mu.Unlock()
		switch {
		case current && (create || d.name != ""):
			return d, nil
		case current:
			d.life.Unlock()
			return nil, ErrNotDeployed
		}
		d.life.Unlock()
	}
}

// Deploy implements Executor.
func (f *Fleet[E]) Deploy(pkg *servable.Package, replicas int) error {
	img, err := BuildServableImage(f.builder, pkg, f.proto.Entrypoint)
	if err != nil {
		return err
	}
	id := pkg.Doc.ID
	d, err := f.hold(id, true)
	if err != nil {
		return err
	}
	defer d.life.Unlock()

	switch {
	case d.name == "":
		d.name = f.proto.Prefix + strings.ReplaceAll(id, "/", "-")
	case d.image == img.Ref():
		return f.scale(d, replicas)
	default:
		// A republished servable: the running pods hold the old
		// version, so they go and the new image's pods replace them.
		f.hangup(d)
		f.cluster.DeleteDeployment(d.name) //nolint:errcheck — already gone is as good
	}
	d.image = img.Ref()
	_, err = f.cluster.CreateDeployment(d.name, k8s.PodSpec{Image: d.image, Requests: f.proto.Requests}, replicas)
	if errors.Is(err, k8s.ErrDeploymentExists) {
		// Somebody else's deployment: forget ours, leave theirs.
		f.forget(id, d)
		return err
	}
	if err == nil {
		err = f.reconcile(d)
	}
	if err != nil {
		// Roll back: pods that did start would otherwise run on with
		// no table entry through which to undeploy them.
		f.remove(id, d) //nolint:errcheck — err is the failure to report
	}
	return err
}

// Scale implements Executor.
func (f *Fleet[E]) Scale(id string, replicas int) error {
	d, err := f.hold(id, false)
	if err != nil {
		return err
	}
	defer d.life.Unlock()
	return f.scale(d, replicas)
}

// scale resizes the deployment and reconciles even when the resize
// failed part-way, so the endpoints are the pods that run.
func (f *Fleet[E]) scale(d *deployment[E], replicas int) error {
	err := f.cluster.Scale(d.name, replicas)
	if rerr := f.reconcile(d); err == nil {
		err = rerr
	}
	return err
}

// reconcile makes d's endpoints match its running pods: a surviving pod
// keeps its connection and in-flight count, a new pod is dialed, a
// vanished pod is hung up. The caller holds d.life.
func (f *Fleet[E]) reconcile(d *deployment[E]) error {
	pods := f.cluster.PodsMatching(map[string]string{"deployment": d.name})
	f.mu.Lock()
	stale := make(map[string]*Endpoint[E], len(d.eps))
	for _, ep := range d.eps {
		stale[ep.pod] = ep
	}
	f.mu.Unlock()

	var err error
	next := make([]*Endpoint[E], 0, len(pods))
	for _, pod := range pods {
		ep, ok := stale[pod.Name]
		if ok {
			delete(stale, pod.Name)
		} else {
			conn, derr := f.proto.Dial(pod)
			if derr != nil {
				err = errors.Join(err, fmt.Errorf("executor: dial %s: %w", pod.Name, derr))
				continue
			}
			ep = &Endpoint[E]{Conn: conn, pod: pod.Name}
		}
		next = append(next, ep)
	}
	f.mu.Lock()
	d.eps = next
	f.mu.Unlock()
	for _, ep := range stale {
		f.proto.Hangup(ep.Conn)
	}
	return err
}

// hangup drops every endpoint of d.
func (f *Fleet[E]) hangup(d *deployment[E]) {
	f.mu.Lock()
	eps := d.eps
	d.eps = nil
	f.mu.Unlock()
	for _, ep := range eps {
		f.proto.Hangup(ep.Conn)
	}
}

// forget takes d out of the table.
func (f *Fleet[E]) forget(id string, d *deployment[E]) {
	f.mu.Lock()
	if f.deps[id] == d {
		delete(f.deps, id)
	}
	f.mu.Unlock()
}

// remove takes d's pods down and only then d out of the table, so that
// a Deploy of the same ID arriving meanwhile waits on d.life instead of
// creating the Kubernetes deployment this one is still deleting.
func (f *Fleet[E]) remove(id string, d *deployment[E]) error {
	f.hangup(d)
	err := f.cluster.DeleteDeployment(d.name)
	f.forget(id, d)
	return err
}

// Replicas implements Executor: the number of dialed pods.
func (f *Fleet[E]) Replicas(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if d, ok := f.deps[id]; ok {
		return len(d.eps)
	}
	return 0
}

// lookup returns id's record, or why it cannot be used. The caller holds
// f.mu.
func (f *Fleet[E]) lookup(id string) (*deployment[E], error) {
	if f.closed {
		return nil, ErrClosed
	}
	d, ok := f.deps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotDeployed, id)
	}
	return d, nil
}

// Check reports why id cannot be invoked: ErrClosed, ErrNotDeployed, or
// nil.
func (f *Fleet[E]) Check(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.lookup(id)
	return err
}

// Pick returns id's least busy endpoint, round-robin among equals, and
// counts one more request in flight on it until Release.
func (f *Fleet[E]) Pick(id string) (*Endpoint[E], error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, err := f.lookup(id)
	if err != nil {
		return nil, err
	}
	if len(d.eps) == 0 {
		return nil, fmt.Errorf("%w: %s has no endpoints", ErrNotDeployed, id)
	}
	best := d.rr % len(d.eps)
	for i := 1; i < len(d.eps); i++ {
		if idx := (d.rr + i) % len(d.eps); d.eps[idx].inflight < d.eps[best].inflight {
			best = idx
		}
	}
	d.rr = best + 1
	d.eps[best].inflight++
	return d.eps[best], nil
}

// Release ends the request Pick counted on ep.
func (f *Fleet[E]) Release(ep *Endpoint[E]) {
	f.mu.Lock()
	ep.inflight--
	f.mu.Unlock()
}

// Undeploy implements Executor.
func (f *Fleet[E]) Undeploy(id string) error {
	d, err := f.hold(id, false)
	if err != nil {
		return err
	}
	defer d.life.Unlock()
	return f.remove(id, d)
}

// Close implements Executor: undeploy everything; every later call is
// ErrClosed. A second Close does nothing.
func (f *Fleet[E]) Close() {
	f.mu.Lock()
	deps := f.deps
	f.deps = nil
	f.closed = true
	f.mu.Unlock()
	for _, d := range deps {
		d.life.Lock()
		f.hangup(d)
		f.cluster.DeleteDeployment(d.name) //nolint:errcheck — best-effort shutdown
		d.life.Unlock()
	}
}
