package executor

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
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
// of the embedded Fleet is one engine. Dispatch runs through a single
// routing loop per executor, charging DispatchOverhead per task — the
// serialization point whose saturation Fig. 7 measures ("task dispatch
// activities eventually come to dominate execution time").
type Parsl struct {
	*Fleet[*rpc.Client]

	tasks    chan *parslTask
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type parslTask struct {
	id      string
	payload []byte
	ctx     context.Context
	done    chan taskOutcome
}

type taskOutcome struct {
	data []byte
	err  error
}

// NewParsl creates a Parsl executor on a cluster. link shapes the
// TM<->pod connections (0.17 ms RTT in the paper's testbed).
func NewParsl(cluster *k8s.Cluster, builder *container.Builder, link netsim.Profile) *Parsl {
	p := &Parsl{
		Fleet: NewFleet(cluster, builder, Protocol[*rpc.Client]{
			Prefix:     "parsl-",
			Entrypoint: ParslEntrypoint,
			Process:    NewPodProcessFactory(true),
			Requests:   k8s.Resources{MilliCPU: 1000, MemMB: 2048},
			Dial:       func(pod *k8s.Pod) (*rpc.Client, error) { return DialPod(pod, link) },
			Hangup:     func(c *rpc.Client) { c.Close() },
		}),
		// Deep enough that Invoke rarely blocks on the dispatcher.
		tasks: make(chan *parslTask, 4096),
		done:  make(chan struct{}),
	}
	p.wg.Add(1)
	go p.dispatchLoop()
	return p
}

// Name implements Executor.
func (p *Parsl) Name() string { return "parsl" }

// dispatchLoop is the single-threaded IPP router: it pays the dispatch
// overhead per task, then hands the task to the least-busy engine.
// Because routing is serialized, total throughput is capped at
// 1/DispatchOverhead regardless of replica count — the Fig. 7 ceiling.
func (p *Parsl) dispatchLoop() {
	defer p.wg.Done()
	for {
		var task *parslTask
		select {
		case <-p.done:
			return
		case task = <-p.tasks:
		}
		// Routing work: engine selection, serialization into the IPP
		// channel, completion bookkeeping.
		time.Sleep(simconst.D(simconst.DispatchOverhead))

		eng, err := p.Pick(task.id)
		if err != nil {
			task.done <- taskOutcome{err: err}
			continue
		}
		go func() {
			data, err := eng.Conn.Call(task.ctx, "run", task.payload)
			p.Release(eng)
			task.done <- taskOutcome{data: data, err: err}
		}()
	}
}

// Invoke implements Executor: enqueue for the dispatcher and wait.
func (p *Parsl) Invoke(ctx context.Context, servableID string, input any) (Result, error) {
	if err := p.Check(servableID); err != nil {
		return Result{}, err
	}
	payload, err := json.Marshal(input)
	if err != nil {
		return Result{}, fmt.Errorf("executor: cannot marshal input: %w", err)
	}
	task := &parslTask{id: servableID, payload: payload, ctx: ctx, done: make(chan taskOutcome, 1)}
	select {
	case p.tasks <- task:
	case <-p.done:
		return Result{}, ErrClosed
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	select {
	case out := <-task.done:
		if out.err != nil {
			return Result{}, out.err
		}
		return DecodeResult(out.data)
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close implements Executor: undeploy everything, then stop the
// dispatcher.
func (p *Parsl) Close() {
	p.Fleet.Close()
	p.stopOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}
