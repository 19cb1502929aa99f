// Package executor defines DLHub's pluggable executor model (§IV-C):
// "DLHub aims to provide efficient model execution for a wide range of
// model types. To achieve this goal it implements an arbitrary executor
// model that currently supports three serving systems: TensorFlow
// Serving, SageMaker, and a general-purpose Parsl executor."
//
// This package holds the Executor interface; the one deployment
// lifecycle all four serving systems share (Fleet, fleet.go); the
// servable image layout (image.go); the servable pod host (the
// in-container process that exposes the standard execution interface
// over the cluster network); and the Parsl executor itself, whose
// replica scaling is Fig. 7. The TF-Serving, SageMaker and Clipper
// executors live in their own packages, embed a Fleet and add their
// protocol.
package executor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/servable"
)

// Errors.
var (
	ErrNotDeployed = errors.New("executor: servable not deployed")
	ErrClosed      = errors.New("executor: closed")
)

// Result is the executor-independent output format of §IV-C: every
// executor "translat[es] the results into a common DLHub
// executor-independent format". The servable host encodes it, once; an
// executor that receives that encoding hands the output on as bytes
// (DecodeResult).
type Result struct {
	Output any `json:"output"`
	// InferenceMicros is the time spent inside the servable (the
	// paper's "inference time", measured at the servable).
	InferenceMicros int64 `json:"inference_us"`
}

// DecodeResult reads a servable host's encoded Result and leaves the
// output as the bytes the host wrote: a json.RawMessage, which the Task
// Manager's reply encode embeds, so a number keeps its text and an object
// its member order all the way to the client.
func DecodeResult(data []byte) (Result, error) {
	var wire struct {
		Output          json.RawMessage `json:"output"`
		InferenceMicros int64           `json:"inference_us"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return Result{}, fmt.Errorf("executor: bad pod response: %w", err)
	}
	return Result{Output: wire.Output, InferenceMicros: wire.InferenceMicros}, nil
}

// Executor deploys servables and routes invocations to them.
type Executor interface {
	// Name identifies the serving system ("parsl", "tfserving", ...).
	Name() string
	// Deploy builds/loads the servable and starts replicas.
	Deploy(pkg *servable.Package, replicas int) error
	// Scale changes the replica count of a deployed servable.
	Scale(servableID string, replicas int) error
	// Invoke runs one input on a deployed servable.
	Invoke(ctx context.Context, servableID string, input any) (Result, error)
	// Undeploy stops all replicas of a servable.
	Undeploy(servableID string) error
	// Replicas reports the current replica count.
	Replicas(servableID string) int
	// Close shuts the executor down.
	Close()
}

// --- servable pod host -------------------------------------------------------

// PodServer is the process that runs inside every servable container:
// it loads the servable from the image filesystem and serves the
// standard execution interface on a TCP port (the DLHub shim).
//
// Python-hosted pods execute ONE request at a time: an IPythonParallel
// engine is a single-threaded interpreter process, so concurrency comes
// only from replicas — the mechanism Fig. 7 scales.
type PodServer struct {
	pythonHosted bool

	mu    sync.Mutex
	srv   *rpc.Server
	addr  string
	sv    *servable.Servable
	runMu sync.Mutex // serializes execution for python-hosted pods
}

// NewPodProcessFactory returns a container.ProcessFactory that starts a
// PodServer for each container instance.
func NewPodProcessFactory(pythonHosted bool) container.ProcessFactory {
	return func() container.Process { return &PodServer{pythonHosted: pythonHosted} }
}

// Start implements container.Process: load the servable and listen.
func (p *PodServer) Start(fs map[string][]byte, env map[string]string) error {
	sv, err := LoadImage(fs, p.pythonHosted)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return err
	}
	srv := rpc.NewServer()
	srv.Handle("run", func(_ context.Context, payload []byte) ([]byte, error) {
		if p.pythonHosted {
			p.runMu.Lock()
			defer p.runMu.Unlock()
		}
		start := time.Now()
		// payload is the rpc server's pooled frame, reused once this
		// handler returns: sv.Run decodes it on entry and keeps nothing.
		out, err := sv.Run(json.RawMessage(payload))
		if err != nil {
			return nil, err
		}
		return json.Marshal(Result{Output: out, InferenceMicros: time.Since(start).Microseconds()})
	})
	go srv.Serve(l) //nolint:errcheck — closed on Stop

	p.mu.Lock()
	p.srv = srv
	p.addr = l.Addr().String()
	p.sv = sv
	p.mu.Unlock()
	return nil
}

// Stop implements container.Process.
func (p *PodServer) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv != nil {
		p.srv.Close()
	}
	if p.sv != nil {
		p.sv.Close()
	}
}

// Addr returns the pod's serving address.
func (p *PodServer) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// PodAddr extracts the serving address from a running pod whose
// container process is a *PodServer (or any Addr() provider).
func PodAddr(pod *k8s.Pod) (string, error) {
	ctr := pod.Container()
	if ctr == nil {
		return "", fmt.Errorf("executor: pod %s has no container", pod.Name)
	}
	type addresser interface{ Addr() string }
	a, ok := ctr.Proc.(addresser)
	if !ok {
		return "", fmt.Errorf("executor: pod %s process does not serve", pod.Name)
	}
	return a.Addr(), nil
}

// DialPod connects to a pod's server through the TM<->cluster link.
func DialPod(pod *k8s.Pod, link netsim.Profile) (*rpc.Client, error) {
	addr, err := PodAddr(pod)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(netsim.Wrap(conn, link)), nil
}

// HTTPClient returns a client whose connections are shaped by link —
// how the HTTP-speaking executors reach their pods.
func HTTPClient(link netsim.Profile) *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return netsim.Wrap(conn, link), nil
		},
	}}
}
