// Package tfserving reproduces TensorFlow Serving as used in §V-B5 — the
// TFServing and SageMaker-TFServing rows of Fig. 8: the C++
// tensorflow_model_server serving trained models over both gRPC and REST
// APIs. The server process hosts the servable *natively* (no
// simulated-Python costs — this is the compiled runtime whose speed
// advantage Fig. 8 shows), exposes a binary framed "gRPC" endpoint
// carrying raw float32 tensors, and a REST endpoint carrying JSON — so
// the gRPC-vs-REST gap comes from genuine encoding and parsing work.
package tfserving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/schema"
	"repro/internal/servable"
)

// Entrypoint is the container entrypoint key for the model server.
const Entrypoint = "tensorflow-model-server"

// API selects the serving protocol, the §V-B5 comparison axis.
type API string

// The two TensorFlow Serving APIs.
const (
	GRPC API = "grpc"
	REST API = "rest"
)

// Server is the in-container tensorflow_model_server process.
type Server struct {
	mu       sync.Mutex
	sv       *servable.Servable
	rpcSrv   *rpc.Server
	httpSrv  *http.Server
	grpcAddr string
	restAddr string
	name     string
}

// Start implements container.Process.
func (s *Server) Start(fs map[string][]byte, env map[string]string) error {
	sv, err := executor.LoadImage(fs, false /* native C++ host */)
	if err != nil {
		return err
	}
	if t := sv.Doc.Servable.Type; t != schema.TypeTensorFlow && t != schema.TypeKeras {
		sv.Close()
		return fmt.Errorf("tfserving: cannot export %s as a TensorFlow servable", t)
	}

	// gRPC listener.
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return err
	}
	rpcSrv := rpc.NewServer()
	rpcSrv.Handle("tensorflow.serving.predict", func(_ context.Context, payload []byte) ([]byte, error) {
		input, err := rpc.DecodeFloats(payload)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := sv.RunNative(input)
		if err != nil {
			return nil, err
		}
		return json.Marshal(executor.Result{Output: out, InferenceMicros: time.Since(start).Microseconds()})
	})
	go rpcSrv.Serve(gl) //nolint:errcheck

	// REST listener.
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rpcSrv.Close()
		sv.Close()
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, ":predict") {
			rpc.WriteError(w, http.StatusNotFound, "unknown endpoint %s", r.URL.Path)
			return
		}
		var req struct {
			Instances [][]float64 `json:"instances"`
		}
		if err := rpc.ReadJSON(r, &req); err != nil {
			rpc.WriteError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		if len(req.Instances) != 1 {
			rpc.WriteError(w, http.StatusBadRequest, "exactly one instance per request, got %d", len(req.Instances))
			return
		}
		start := time.Now()
		out, err := sv.RunNative(req.Instances[0])
		if err != nil {
			rpc.WriteError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rpc.WriteJSON(w, http.StatusOK, map[string]any{
			"predictions":  []any{out},
			"inference_us": time.Since(start).Microseconds(),
		})
	})
	httpSrv := &http.Server{Handler: mux}
	go httpSrv.Serve(rl) //nolint:errcheck

	s.mu.Lock()
	s.sv = sv
	s.rpcSrv = rpcSrv
	s.httpSrv = httpSrv
	s.grpcAddr = gl.Addr().String()
	s.restAddr = rl.Addr().String()
	s.name = sv.Doc.Publication.Name
	s.mu.Unlock()
	return nil
}

// Stop implements container.Process.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rpcSrv != nil {
		s.rpcSrv.Close()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.sv != nil {
		s.sv.Close()
	}
}

// Addr returns the gRPC address (the default executor.PodAddr view).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.grpcAddr
}

// RESTAddr returns the REST address.
func (s *Server) RESTAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restAddr
}

// ModelName returns the served model name.
func (s *Server) ModelName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name
}

// --- executor ----------------------------------------------------------------

// Executor deploys TensorFlow Serving containers on Kubernetes and
// routes invocations over the chosen API (§IV-C "TensorFlow Serving
// executor"). The deployment lifecycle is the embedded Fleet's; an
// endpoint is one model server reached over that API.
type Executor struct {
	*executor.Fleet[endpoint]
	api API
}

// endpoint is one model server: a framed connection for gRPC, a URL and
// a shaped client for REST.
type endpoint struct {
	grpc *rpc.Client
	url  string
	http *http.Client
}

// New creates a TF-Serving executor using the given API variant.
func New(cluster *k8s.Cluster, builder *container.Builder, link netsim.Profile, api API) *Executor {
	return &Executor{api: api, Fleet: executor.NewFleet(cluster, builder, executor.Protocol[endpoint]{
		// Per API: both variants may serve one model on one cluster.
		Prefix:     "tfs-" + string(api) + "-",
		Entrypoint: Entrypoint,
		Process:    func() container.Process { return &Server{} },
		Requests:   k8s.Resources{MilliCPU: 2000, MemMB: 4096},
		Dial: func(pod *k8s.Pod) (endpoint, error) {
			srv, ok := pod.Container().Proc.(*Server)
			if !ok {
				return endpoint{}, fmt.Errorf("tfserving: pod %s is not a model server", pod.Name)
			}
			if api == GRPC {
				client, err := executor.DialPod(pod, link)
				return endpoint{grpc: client}, err
			}
			url := "http://" + srv.RESTAddr() + "/v1/models/" + srv.ModelName() + ":predict"
			return endpoint{url: url, http: executor.HTTPClient(link)}, nil
		},
		Hangup: func(ep endpoint) {
			if ep.grpc != nil {
				ep.grpc.Close()
			} else {
				ep.http.CloseIdleConnections()
			}
		},
	})}
}

// Name implements executor.Executor.
func (e *Executor) Name() string { return "tfserving-" + string(e.api) }

// Invoke implements executor.Executor.
func (e *Executor) Invoke(ctx context.Context, servableID string, input any) (executor.Result, error) {
	ep, err := e.Pick(servableID)
	if err != nil {
		return executor.Result{}, err
	}
	defer e.Release(ep)
	if e.api == GRPC {
		return invokeGRPC(ctx, ep.Conn.grpc, input)
	}
	return invokeREST(ep.Conn, input)
}

func invokeGRPC(ctx context.Context, client *rpc.Client, input any) (executor.Result, error) {
	vec, err := servable.ToFloat32Slice(input)
	if err != nil {
		return executor.Result{}, err
	}
	data, err := client.Call(ctx, "tensorflow.serving.predict", rpc.EncodeFloats(vec))
	if err != nil {
		return executor.Result{}, err
	}
	return executor.DecodeResult(data)
}

func invokeREST(ep endpoint, input any) (executor.Result, error) {
	vec, err := servable.ToFloat64Slice(input)
	if err != nil {
		return executor.Result{}, err
	}
	var resp struct {
		Predictions []json.RawMessage `json:"predictions"`
		InferenceUS int64             `json:"inference_us"`
	}
	if err := rpc.PostJSON(ep.http, ep.url, map[string]any{"instances": [][]float64{vec}}, &resp); err != nil {
		return executor.Result{}, err
	}
	if len(resp.Predictions) != 1 {
		return executor.Result{}, errors.New("tfserving: malformed REST response")
	}
	return executor.Result{Output: resp.Predictions[0], InferenceMicros: resp.InferenceUS}, nil
}
