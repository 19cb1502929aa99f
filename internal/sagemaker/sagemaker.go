// Package sagemaker reproduces the SageMaker serving path of §IV-C and
// §V-B5 (the SageMaker-Flask row of Fig. 8): "The SageMaker container
// includes a Python Flask application that exposes an HTTP-based model
// inference interface." The Flask app
// hosts the servable under the simulated Python runtime and adds the
// calibrated WSGI per-request overhead; SageMaker can alternatively
// front TensorFlow Serving ("SageMaker-TFServing"), which the Fig. 8
// harness builds by pointing the tfserving executor at SageMaker-built
// containers.
package sagemaker

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// Entrypoint is the container entrypoint key for the Flask app.
const Entrypoint = "sagemaker-flask-app"

// FlaskApp is the in-container Python inference application serving
// POST /invocations and GET /ping, as SageMaker containers do.
type FlaskApp struct {
	mu      sync.Mutex
	sv      *servable.Servable
	httpSrv *http.Server
	addr    string
}

// Start implements container.Process.
func (a *FlaskApp) Start(fs map[string][]byte, env map[string]string) error {
	sv, err := executor.LoadImage(fs, true /* Flask is Python */)
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	var runMu sync.Mutex // one WSGI worker: Python executes serially
	mux.HandleFunc("/invocations", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			rpc.WriteError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		runMu.Lock()
		defer runMu.Unlock()
		// WSGI request routing/parsing cost beyond Go's HTTP stack.
		time.Sleep(simconst.D(simconst.FlaskRequestOverhead))
		var input any
		if err := rpc.ReadJSON(r, &input); err != nil {
			rpc.WriteError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		start := time.Now()
		out, err := sv.Run(input)
		if err != nil {
			rpc.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rpc.WriteJSON(w, http.StatusOK, executor.Result{
			Output:          out,
			InferenceMicros: time.Since(start).Microseconds(),
		})
	})
	httpSrv := &http.Server{Handler: mux}
	go httpSrv.Serve(l) //nolint:errcheck

	a.mu.Lock()
	a.sv = sv
	a.httpSrv = httpSrv
	a.addr = l.Addr().String()
	a.mu.Unlock()
	return nil
}

// Stop implements container.Process.
func (a *FlaskApp) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.httpSrv != nil {
		a.httpSrv.Close()
	}
	if a.sv != nil {
		a.sv.Close()
	}
}

// Addr returns the HTTP address.
func (a *FlaskApp) Addr() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addr
}

// --- executor ----------------------------------------------------------------

// Executor deploys SageMaker Flask containers on Kubernetes (§IV-C
// "SageMaker executor ... composes HTTP requests to the SageMaker
// interface to perform inference"). The deployment lifecycle is the
// embedded Fleet's; an endpoint is one Flask app's /invocations URL.
type Executor struct {
	*executor.Fleet[endpoint]
}

type endpoint struct {
	url    string
	client *http.Client
}

// New creates a SageMaker executor.
func New(cluster *k8s.Cluster, builder *container.Builder, link netsim.Profile) *Executor {
	return &Executor{executor.NewFleet(cluster, builder, executor.Protocol[endpoint]{
		Prefix:     "sm-",
		Entrypoint: Entrypoint,
		Process:    func() container.Process { return &FlaskApp{} },
		Requests:   k8s.Resources{MilliCPU: 2000, MemMB: 4096},
		Dial: func(pod *k8s.Pod) (endpoint, error) {
			addr, err := executor.PodAddr(pod)
			return endpoint{url: "http://" + addr + "/invocations", client: executor.HTTPClient(link)}, err
		},
		Hangup: func(ep endpoint) { ep.client.CloseIdleConnections() },
	})}
}

// Name implements executor.Executor.
func (e *Executor) Name() string { return "sagemaker-flask" }

// Invoke implements executor.Executor.
func (e *Executor) Invoke(_ context.Context, servableID string, input any) (executor.Result, error) {
	ep, err := e.Pick(servableID)
	if err != nil {
		return executor.Result{}, err
	}
	defer e.Release(ep)
	var body json.RawMessage
	if err := rpc.PostJSON(ep.Conn.client, ep.Conn.url, input, &body); err != nil {
		return executor.Result{}, err
	}
	return executor.DecodeResult(body)
}
