package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/simconst"
	"repro/internal/store"
	"repro/internal/taskmanager"
)

// stackConfig says which deployment a workload runs against.
type stackConfig struct {
	// wan selects the paper-faithful testbed (netsim WAN, Parsl, python
	// pods, anonymous caller); false is the sim-free stack.
	wan bool
	// catalogue is the number of servables published beside noop.
	catalogue int
	// wal backs the repository with the durable store (Sync off).
	wal bool
	// inprocQueue connects the Task Manager to the broker in process
	// where the workloads use the loopback TCP transport; the isolated
	// core drivers use it to leave the transport out.
	inprocQueue bool
}

// stack is one assembled deployment served on a loopback HTTP port.
type stack struct {
	ms     *core.Service
	addr   string
	auth   string // Authorization header value; "" when anonymous
	caller core.Caller
	owner  string // ID prefix of what caller publishes
	docs   []catalogueEntry
	// injectedUs is the nominal simconst sleep on one dispatched run.
	injectedUs float64
	closers    []func()
}

// close tears the deployment down in reverse order of assembly and
// returns once every goroutine it owns has stopped.
func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// direct is the benchmark's sim-free executor: the servable is loaded
// natively in the Task Manager process, so no simconst sleep, netsim
// link or pyruntime interpreter sits on the request path.
type direct struct {
	mu     sync.RWMutex
	loaded map[string]*servable.Servable
}

func newDirect() *direct { return &direct{loaded: make(map[string]*servable.Servable)} }

func (d *direct) Name() string { return "direct" }

func (d *direct) Deploy(pkg *servable.Package, replicas int) error {
	sv, err := servable.Load(pkg.Doc, pkg.Components, false)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.loaded[pkg.Doc.ID] = sv
	d.mu.Unlock()
	return nil
}

func (d *direct) Scale(string, int) error { return nil }

func (d *direct) Invoke(_ context.Context, id string, input any) (executor.Result, error) {
	d.mu.RLock()
	sv := d.loaded[id]
	d.mu.RUnlock()
	if sv == nil {
		return executor.Result{}, fmt.Errorf("%w: %s", executor.ErrNotDeployed, id)
	}
	start := time.Now()
	out, err := sv.RunNative(input)
	if err != nil {
		return executor.Result{}, err
	}
	return executor.Result{Output: out, InferenceMicros: time.Since(start).Microseconds()}, nil
}

func (d *direct) Undeploy(id string) error {
	d.mu.Lock()
	delete(d.loaded, id)
	d.mu.Unlock()
	return nil
}

func (d *direct) Replicas(id string) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.loaded[id] == nil {
		return 0
	}
	return 1
}

func (d *direct) Close() {}

// newStack assembles the deployment cfg names, publishes the catalogue
// and deploys noop. rec, when set, puts the tracing interposers around
// the HTTP handler, the TM's queue connection and its executor.
func newStack(cfg stackConfig, seed int64, rec *recorder) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var refHandler http.Handler
	if cfg.wan {
		refHandler, err = st.assembleWAN()
	} else {
		refHandler, err = st.assembleDirect(cfg, rec)
	}
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	st.docs = newCatalogue(seed, cfg.catalogue, st.owner)
	for i := range st.docs {
		if _, err := st.ms.Publish(ctx, st.caller, st.docs[i].pkg); err != nil {
			return nil, fmt.Errorf("publish %s: %w", st.docs[i].id, err)
		}
	}
	noop, err := st.ms.Publish(ctx, st.caller, servable.NoopPackage())
	if err != nil {
		return nil, fmt.Errorf("publish noop: %w", err)
	}
	route, replicas := "direct", 1
	if cfg.wan {
		route, replicas = "parsl", 2
	}
	if err := st.ms.Deploy(ctx, st.caller, noop, replicas, route); err != nil {
		return nil, fmt.Errorf("deploy noop: %w", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/ref", refHandler)
	var api http.Handler = st.ms.Handler()
	if rec != nil {
		api = tracedHandler{next: api, rec: rec}
	}
	mux.Handle("/", api)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		srv.Serve(l) //nolint:errcheck — ends with ErrServerClosed on close
		close(served)
	}()
	st.closers = append(st.closers, func() { srv.Close(); <-served })
	st.addr = l.Addr().String()
	return st, nil
}

// assembleDirect builds the sim-free stack: strict bearer auth with one
// tenant whose quotas never bind, the service cache on, and a Task
// Manager connected over the loopback TCP queue transport the way
// dlhub-taskmanager connects to dlhub-server.
func (st *stack) assembleDirect(cfg stackConfig, rec *recorder) (http.Handler, error) {
	const clientID, scope = "dlhub", "dlhub:serve"
	as := auth.NewService(time.Hour)
	as.RegisterProvider("local")
	as.RegisterClient(clientID, "DLHub Management Service", scope)
	mcfg := core.Config{Auth: as, RequireAuth: true, RunScope: scope, AuthClientID: clientID, AuthProvider: "local"}
	if cfg.wal {
		dir, err := os.MkdirTemp(outDir(), "wal-")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { os.RemoveAll(dir) })
		w, err := store.Open(store.Options{Dir: dir, Sync: false})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { w.Close() })
		mcfg.Store = w
	}
	st.ms = core.New(mcfg)
	st.closers = append(st.closers, st.ms.Close)
	if cfg.wal {
		if _, err := st.ms.Recover(); err != nil {
			return nil, err
		}
	}
	if _, err := st.ms.RegisterUser("local", "bench", "bench-password", "Bench", "", "bench"); err != nil {
		return nil, err
	}
	// A batch reserves one in-flight slot per input, so the bound sits
	// above two concurrent 100-input batches.
	if _, err := st.ms.SetTenantQuota("bench", auth.Quota{MaxInFlight: 4096, RatePerSec: 1e6}); err != nil {
		return nil, err
	}
	login, err := st.ms.Login("local", "bench", "bench-password")
	if err != nil {
		return nil, err
	}
	st.auth = "Bearer " + login.AccessToken
	if st.caller, err = st.ms.ResolveCaller(st.auth); err != nil {
		return nil, err
	}
	st.owner = "bench"

	var q taskmanager.QueueAPI = taskmanager.BrokerAdapter{B: st.ms.Broker()}
	if !cfg.inprocQueue {
		qsrv := queue.NewServer(st.ms.Broker())
		ql, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go qsrv.Serve(ql) //nolint:errcheck — ends when the server closes
		st.closers = append(st.closers, func() { qsrv.Close() })
		conn, err := net.Dial("tcp", ql.Addr().String())
		if err != nil {
			return nil, err
		}
		qc := queue.NewClient(conn)
		st.closers = append(st.closers, func() { qc.Close() })
		q = qc
	}
	var ex executor.Executor = newDirect()
	if rec != nil {
		q = tracedQueue{QueueAPI: q, rec: rec}
		ex = tracedExecutor{Executor: ex, rec: rec}
	}
	tm, err := taskmanager.New(taskmanager.Config{
		ID:        "tm-1",
		Queue:     q,
		Executors: map[string]executor.Executor{"direct": ex},
		Pullers:   8,
	})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, tm.Close)
	if err := st.ms.WaitForTM(1, 10*time.Second); err != nil {
		return nil, err
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := readRef(r); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeRef(w)
	}), nil
}

// assembleWAN builds the paper's three-site testbed. Its reference
// handler crosses a WAN link shaped exactly like the MS<->TM one to a
// null Task Manager: an rpc echo server that does nothing.
func (st *stack) assembleWAN() (http.Handler, error) {
	simconst.Scale = 1
	tb, err := bench.NewTestbed(bench.Options{WAN: true, Nodes: 4})
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, tb.Close)
	st.ms, st.caller, st.owner = tb.MS, core.Anonymous, "anonymous"
	st.injectedUs = float64((simconst.RTTManagementToTM + simconst.DispatchOverhead +
		simconst.RTTTMToCluster + simconst.PythonCallOverhead).Microseconds())

	wan := netsim.RTT(simconst.D(simconst.RTTManagementToTM), simconst.WANBandwidth)
	echo := rpc.NewServer()
	echo.Handle("echo", func(context.Context, []byte) ([]byte, error) { return []byte("ok"), nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go echo.Serve(netsim.NewListener(l, wan)) //nolint:errcheck — ends when the server closes
	st.closers = append(st.closers, func() { echo.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	far := rpc.NewClient(netsim.Wrap(conn, wan))
	st.closers = append(st.closers, func() { far.Close() })
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readRef(r)
		if err == nil {
			_, err = far.Call(r.Context(), "echo", body)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeRef(w)
	}), nil
}

// readRef is all the reference handler does with a request: read the
// body and decode it as JSON, the least any JSON-over-HTTP service must
// do with it. The decode matters on batch-direct, whose 50 KB body makes
// a reference that only copied bytes sixty times cheaper than the request
// and a poor yardstick for how fast the host was at that moment.
func readRef(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil || len(body) == 0 {
		return body, err
	}
	var v any
	return body, json.Unmarshal(body, &v)
}

func writeRef(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(refReply) //nolint:errcheck — the client verifies the reply
}
