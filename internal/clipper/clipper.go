// Package clipper reproduces the Clipper baseline of §III-B and §V-B5
// (the two Clipper rows of Fig. 8):
// a prediction-serving system whose query frontend runs as a pod on the
// Kubernetes cluster, fronting model containers over in-cluster RPC.
// Its defining contrast with DLHub in Fig. 8 is cache placement:
// "Clipper ... maintains a cache at the query frontend that is deployed
// as a pod on the Kubernetes cluster. Hence, cached responses still
// require the request to be transmitted to the query frontend, leading
// to additional overhead" — whereas DLHub's Parsl cache lives at the
// Task Manager.
package clipper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/simconst"
)

// Entrypoints for the two Clipper container roles.
const (
	FrontendEntrypoint = "clipper-query-frontend"
	ModelEntrypoint    = "clipper-model-container"
)

// Frontend is the query-frontend process: it owns the in-cluster cache
// and routes to model containers.
type Frontend struct {
	mu       sync.Mutex
	srv      *rpc.Server
	addr     string
	fleet    *executor.Fleet[*rpc.Client] // the System's table of model containers
	cache    map[string][]byte
	caching  bool
	hits     uint64
	requests uint64
}

// Start implements container.Process: the frontend serves immediately;
// the System hands it the model-container table once it exists.
func (f *Frontend) Start(fs map[string][]byte, env map[string]string) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := rpc.NewServer()
	srv.Handle("clipper.predict", f.handlePredict)
	go srv.Serve(l) //nolint:errcheck
	f.mu.Lock()
	f.srv = srv
	f.addr = l.Addr().String()
	f.mu.Unlock()
	return nil
}

type predictRequest struct {
	Servable string          `json:"servable"`
	Input    json.RawMessage `json:"input"`
}

func (f *Frontend) handlePredict(ctx context.Context, payload []byte) ([]byte, error) {
	// Frontend queueing/framing cost.
	time.Sleep(simconst.D(simconst.ClipperFrontendOverhead))

	var req predictRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("clipper: bad predict request: %w", err)
	}

	f.mu.Lock()
	f.requests++
	caching := f.caching
	var key string
	if caching {
		sum := sha256.Sum256(append([]byte(req.Servable+"\x00"), req.Input...))
		key = hex.EncodeToString(sum[:])
		if cached, ok := f.cache[key]; ok {
			f.hits++
			f.mu.Unlock()
			return cached, nil
		}
	}
	fleet := f.fleet
	f.mu.Unlock()

	model, err := fleet.Pick(req.Servable)
	if err != nil {
		return nil, err
	}
	out, err := model.Conn.Call(ctx, "run", req.Input)
	fleet.Release(model)
	if err != nil {
		return nil, err
	}
	if caching {
		f.mu.Lock()
		f.cache[key] = out
		f.mu.Unlock()
	}
	return out, nil
}

// SetCaching toggles the frontend cache (Fig. 8 ±memoization runs).
func (f *Frontend) SetCaching(on bool) {
	f.mu.Lock()
	f.caching = on
	if !on {
		f.cache = make(map[string][]byte)
	}
	f.mu.Unlock()
}

// Stop implements container.Process.
func (f *Frontend) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.srv != nil {
		f.srv.Close()
	}
}

// Addr returns the frontend's serving address.
func (f *Frontend) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// --- system ------------------------------------------------------------------

// System is a deployed Clipper instance: one query frontend plus model
// deployments, all on the cluster. It implements executor.Executor so
// the Task Manager can route to it like any serving system. The model
// deployments are the embedded Fleet's, dialed over the cluster-internal
// link because it is the frontend, not the Task Manager, that calls them.
type System struct {
	*executor.Fleet[*rpc.Client]
	cluster *k8s.Cluster

	frontend *Frontend
	fePod    string
	feClient *rpc.Client // TM <-> cluster: requests enter here
}

// New deploys the Clipper query frontend on the cluster. Model
// containers use executor.PodServer (python-hosted), matching Clipper's
// Docker model containers.
func New(cluster *k8s.Cluster, builder *container.Builder, runtime *container.Runtime, tmLink netsim.Profile) (*System, error) {
	runtime.RegisterProcess(FrontendEntrypoint, func() container.Process {
		return &Frontend{cache: make(map[string][]byte)}
	})
	if _, err := builder.Build(container.BuildSpec{
		Name: "clipper/frontend", Tag: "0.3", Entrypoint: FrontendEntrypoint,
	}); err != nil {
		return nil, err
	}
	pod, err := cluster.RunPod("clipper-frontend", k8s.PodSpec{
		Image:    "clipper/frontend:0.3",
		Requests: k8s.Resources{MilliCPU: 2000, MemMB: 4096},
		Labels:   map[string]string{"app": "clipper-frontend"},
	})
	if err != nil {
		return nil, err
	}
	feClient, err := executor.DialPod(pod, tmLink)
	if err != nil {
		cluster.DeletePod(pod.Name) //nolint:errcheck — err is the failure to report
		return nil, err
	}
	clusterLink := netsim.RTT(simconst.D(simconst.ClusterInternalRTT), simconst.LinkBandwidth)
	s := &System{
		Fleet: executor.NewFleet(cluster, builder, executor.Protocol[*rpc.Client]{
			Prefix:     "clipper-",
			Entrypoint: ModelEntrypoint,
			Process:    executor.NewPodProcessFactory(true),
			Requests:   k8s.Resources{MilliCPU: 1000, MemMB: 2048},
			Dial:       func(pod *k8s.Pod) (*rpc.Client, error) { return executor.DialPod(pod, clusterLink) },
			Hangup:     func(c *rpc.Client) { c.Close() },
		}),
		cluster:  cluster,
		frontend: pod.Container().Proc.(*Frontend),
		fePod:    pod.Name,
		feClient: feClient,
	}
	s.frontend.mu.Lock()
	s.frontend.fleet = s.Fleet
	s.frontend.mu.Unlock()
	return s, nil
}

// Name implements executor.Executor.
func (s *System) Name() string { return "clipper" }

// SetCaching toggles frontend memoization.
func (s *System) SetCaching(on bool) { s.frontend.SetCaching(on) }

// Invoke implements executor.Executor: requests go TM -> frontend ->
// model container, the topology whose cache placement Fig. 8 exposes.
func (s *System) Invoke(ctx context.Context, servableID string, input any) (executor.Result, error) {
	if err := s.Check(servableID); err != nil {
		return executor.Result{}, err
	}
	inputData, err := json.Marshal(input)
	if err != nil {
		return executor.Result{}, err
	}
	payload, err := json.Marshal(predictRequest{Servable: servableID, Input: inputData})
	if err != nil {
		return executor.Result{}, err
	}
	data, err := s.feClient.Call(ctx, "clipper.predict", payload)
	if err != nil {
		return executor.Result{}, err
	}
	return executor.DecodeResult(data)
}

// Close implements executor.Executor: the model deployments, then the
// frontend.
func (s *System) Close() {
	s.Fleet.Close()
	s.feClient.Close()
	s.cluster.DeletePod(s.fePod) //nolint:errcheck — gone already on a second Close
}
