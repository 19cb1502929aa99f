package executor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/container"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/simconst"
)

// ParslEntrypoint is the image entrypoint of the IPP engine process.
const ParslEntrypoint = "dlhub-ipp-engine"

// Parsl is the general-purpose executor of §IV-C: "Parsl then deploys
// IPythonParallel (IPP) engines in each servable container and connects
// back to the Task Manager to retrieve servable execution requests.
// Parsl dispatches requests to the appropriate containers using IPP,
// load balancing them automatically across the available pods."
//
// Servables run Python-hosted (they are IPython engines); an endpoint
// of the embedded Fleet is one engine. Every invocation passes through
// one IPP router, held by one invocation at a time, in arrival order,
// for DispatchOverhead and the engine pick — the serialization point
// whose saturation Fig. 7 measures ("task dispatch activities
// eventually come to dominate execution time"). The router is held in
// the caller's goroutine; the Fleet's Close is the executor's one stop.
type Parsl struct {
	*Fleet[*rpc.Client]

	// router is the IPP router's one slot. Blocked senders on a channel
	// are served first come, first served, so the router stays FIFO.
	router chan struct{}
}

// NewParsl creates a Parsl executor on a cluster. link shapes the
// TM<->pod connections (0.17 ms RTT in the paper's testbed).
func NewParsl(cluster *k8s.Cluster, builder *container.Builder, link netsim.Profile) *Parsl {
	return &Parsl{
		Fleet: NewFleet(cluster, builder, Protocol[*rpc.Client]{
			Prefix:     "parsl-",
			Entrypoint: ParslEntrypoint,
			Process:    NewPodProcessFactory(true),
			Requests:   k8s.Resources{MilliCPU: 1000, MemMB: 2048},
			Dial:       func(pod *k8s.Pod) (*rpc.Client, error) { return DialPod(pod, link) },
			Hangup:     func(c *rpc.Client) { c.Close() },
		}),
		router: make(chan struct{}, 1),
	}
}

// Name implements Executor.
func (p *Parsl) Name() string { return "parsl" }

// Invoke implements Executor: route through the IPP router, then call
// the engine it picked. A call cut off by Close reports ErrClosed.
func (p *Parsl) Invoke(ctx context.Context, servableID string, input any) (Result, error) {
	if err := p.Check(servableID); err != nil {
		return Result{}, err
	}
	payload, err := json.Marshal(input)
	if err != nil {
		return Result{}, fmt.Errorf("executor: cannot marshal input: %w", err)
	}
	eng, err := p.route(ctx, servableID)
	if err != nil {
		return Result{}, err
	}
	data, err := eng.Conn.Call(ctx, "run", payload)
	p.Release(eng)
	if err != nil {
		if errors.Is(p.Check(servableID), ErrClosed) {
			return Result{}, ErrClosed
		}
		return Result{}, err
	}
	return DecodeResult(data)
}

// route waits its turn at the router, pays the dispatch overhead and
// picks the least-busy engine. Because routing is serialized, total
// throughput is capped at 1/DispatchOverhead regardless of replica
// count — the Fig. 7 ceiling. An invocation whose context ends while it
// waits leaves the queue without paying the overhead.
func (p *Parsl) route(ctx context.Context, servableID string) (*Endpoint[*rpc.Client], error) {
	select {
	case p.router <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-p.router }()
	// Routing work: engine selection, serialization into the IPP
	// channel, completion bookkeeping.
	time.Sleep(simconst.D(simconst.DispatchOverhead))
	return p.Pick(servableID)
}
