// Package bench assembles the paper's three-site deployment (§V-A) in
// one process and implements every experiment of the evaluation
// section. The testbed wires together: the Management Service ("on an
// Amazon EC2 instance"), its queue broker, one or more Task Managers
// ("on a co-located cluster, Cooley"), and the PetrelKube-like
// Kubernetes cluster running servable pods — with netsim-shaped links
// carrying the paper's measured RTTs between the sites.
//
// Beyond the paper experiments, the testbed is the substrate for the
// declarative scenario harness (bench/scenario): it exposes scripted
// fault injection — KillTM (a kill -9: no replies, heartbeats stop,
// the site's cluster keeps its pods), RestartTM (a new TM process
// reattaching to the surviving cluster) — alongside the Management
// Service's own DrainTM/RejoinTM lifecycle.
package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/clipper"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/sagemaker"
	"repro/internal/servable"
	"repro/internal/simconst"
	"repro/internal/store"
	"repro/internal/taskmanager"
	"repro/internal/tfserving"
)

// Options configures a Testbed.
type Options struct {
	// Nodes in the Kubernetes cluster (default 14, as PetrelKube).
	Nodes int
	// WAN applies the paper's measured RTTs between MS and TM. When
	// false the queue is in-process (unit-test mode).
	WAN bool
	// Memoize enables the TM cache at startup.
	Memoize bool
	// ServiceCache enables the Management Service's result cache. The
	// testbed defaults it OFF (unlike core.New) so the paper-faithful
	// experiments keep measuring the TM-side cache of §V-B5; the cache
	// ablation turns it on explicitly.
	ServiceCache bool
	// Executors beyond "parsl" to install: "tfserving-grpc",
	// "tfserving-rest", "sagemaker", "clipper".
	Executors []string
	// Auth enables authentication on the Management Service.
	Auth *auth.Service
	// RunScope is required when Auth is set.
	RunScope string
	// RequireAuth makes bearer tokens mandatory (what `dlhub-server
	// -auth` sets): an empty bearer resolves to 401, never anonymous.
	RequireAuth bool
	// AuthClientID names the resource-server client login issues tokens
	// for; AuthProvider the identity provider register/login default to
	// ("" = "local"). Only meaningful with Auth.
	AuthClientID string
	AuthProvider string
	// AutoscaleInterval overrides the Management Service's autoscaler
	// tick (0 keeps the 1s default). The autoscale ablation and tests
	// use fast ticks so convergence fits in bench timescales.
	AutoscaleInterval time.Duration
	// MaxQueue sets the service-wide admission-control bound (0 =
	// unbounded, matching production default).
	MaxQueue int
	// Heartbeat sets every Task Manager's heartbeat interval (0
	// disables heartbeats). Required whenever TMStaleAfter is set —
	// without beats every TM goes stale right after registration.
	Heartbeat time.Duration
	// TMStaleAfter enables the Management Service's liveness window and
	// dead-TM watchdog (0 disables, the production default).
	TMStaleAfter time.Duration
	// FailoverRetries bounds dead-TM re-dispatches per request (0 keeps
	// the service default of 2; < 0 disables failover).
	FailoverRetries int
	// DataDir, when set, backs the Management Service with the durable
	// store (internal/store WAL + checkpoints) rooted there and enables
	// RestartMS — the scenario harness's kill-and-recover fault. Empty
	// keeps today's in-memory service (no store, zero overhead).
	DataDir string
}

// site is one Task Manager site: the TM process plus the executors it
// fronts. The executors (and the cluster behind them) deliberately
// outlive a killed TM — on a real kill -9 the serving pods keep
// running, and a restarted TM reattaches to them.
type site struct {
	tm      *taskmanager.TM
	execs   map[string]executor.Executor
	memoize bool
	pullers int
	// client is the WAN-shaped queue connection (nil in-process);
	// replaced on restart.
	client *queue.Client
}

// Testbed is an assembled deployment.
type Testbed struct {
	MS      *core.Service
	TM      *taskmanager.TM
	Cluster *k8s.Cluster
	Runtime *container.Runtime
	Clipper *clipper.System

	opts      Options
	queueSrv  *queue.Server
	queueAddr string
	execs     map[string]executor.Executor

	// wal is the durable store behind MS when Options.DataDir is set;
	// msCfg is the service config RestartMS rebuilds from (minus the
	// Store, which is reopened per restart); msMu guards the MS swap
	// RestartMS performs (readers that may overlap a restart go through
	// Service()).
	wal   *store.WAL
	msCfg core.Config
	msMu  sync.RWMutex

	// sites tracks every TM site (including the primary) by TM ID, in
	// creation order for teardown.
	sites     map[string]*site
	siteOrder []string
}

// NewTestbed assembles a deployment per opts.
func NewTestbed(opts Options) (*Testbed, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 14
	}
	tb := &Testbed{
		opts:  opts,
		execs: make(map[string]executor.Executor),
		sites: make(map[string]*site),
	}

	// Site 3: the Kubernetes cluster, and the executors at the TM site.
	registry := container.NewRegistry()
	builder := container.NewBuilder(registry)
	link := tmClusterLink()
	tb.Cluster, tb.execs["parsl"] = newCluster(registry, opts.Nodes)
	tb.Runtime = tb.Cluster.Runtime()
	for _, name := range opts.Executors {
		switch name {
		case "tfserving-grpc":
			tb.execs[name] = tfserving.New(tb.Cluster, builder, link, tfserving.GRPC)
		case "tfserving-rest":
			tb.execs[name] = tfserving.New(tb.Cluster, builder, link, tfserving.REST)
		case "sagemaker":
			tb.execs[name] = sagemaker.New(tb.Cluster, builder, link)
		case "clipper":
			sys, err := clipper.New(tb.Cluster, builder, tb.Runtime, link)
			if err != nil {
				return nil, fmt.Errorf("bench: clipper: %w", err)
			}
			tb.Clipper = sys
			tb.execs[name] = sys
		default:
			return nil, fmt.Errorf("bench: unknown executor %q", name)
		}
	}

	// Site 1: the Management Service and its broker, optionally backed
	// by the durable store. The testbed skips WAL fsyncs: the process
	// (and so the OS page cache) survives an in-process RestartMS, and
	// what the scenarios prove is recovery correctness, not disk sync.
	cfg := core.Config{
		Auth:              opts.Auth,
		RunScope:          opts.RunScope,
		RequireAuth:       opts.RequireAuth,
		AuthClientID:      opts.AuthClientID,
		AuthProvider:      opts.AuthProvider,
		Registry:          registry,
		Cache:             core.CacheConfig{Disabled: !opts.ServiceCache},
		AutoscaleInterval: opts.AutoscaleInterval,
		MaxQueue:          opts.MaxQueue,
		TMStaleAfter:      opts.TMStaleAfter,
		FailoverRetries:   opts.FailoverRetries,
	}
	tb.msCfg = cfg
	if opts.DataDir != "" {
		w, err := store.Open(store.Options{Dir: opts.DataDir, Sync: false})
		if err != nil {
			return nil, fmt.Errorf("bench: durable store: %w", err)
		}
		tb.wal = w
		cfg.Store = w
	}
	tb.MS = core.New(cfg)
	if tb.wal != nil {
		if _, err := tb.MS.Recover(); err != nil {
			tb.wal.Close()
			return nil, fmt.Errorf("bench: recover: %w", err)
		}
	}

	// Site 2: the Task Manager, connected over the WAN or in-process.
	if opts.WAN {
		tb.queueSrv = queue.NewServer(tb.MS.Broker())
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// Shape BOTH ends so a request/reply exchange pays the full
		// measured 20.7 ms RTT (each end delays its outbound leg by
		// half the RTT).
		wan := netsim.RTT(simconst.D(simconst.RTTManagementToTM), simconst.WANBandwidth)
		go tb.queueSrv.Serve(netsim.NewListener(l, wan)) //nolint:errcheck
		tb.queueAddr = l.Addr().String()
	}

	st := &site{execs: tb.execs, memoize: opts.Memoize, pullers: 8}
	if err := tb.startSite("cooley-tm-1", st); err != nil {
		return nil, err
	}
	tb.sites["cooley-tm-1"] = st
	tb.siteOrder = append(tb.siteOrder, "cooley-tm-1")
	tb.TM = st.tm
	if err := tb.MS.WaitForTM(1, 10*time.Second); err != nil {
		return nil, err
	}
	return tb, nil
}

// tmClusterLink is the TM <-> cluster link (0.17 ms RTT, 40GbE).
func tmClusterLink() netsim.Profile {
	return netsim.RTT(simconst.D(simconst.RTTTMToCluster), simconst.LinkBandwidth)
}

// newCluster builds one site's serving side: a cluster of PetrelKube
// nodes (32 hyperthreads, 128 GB) running images from registry, and the
// Parsl executor every site has.
func newCluster(registry *container.Registry, nodes int) (*k8s.Cluster, executor.Executor) {
	cluster := k8s.NewCluster(container.NewRuntime(registry), nodes, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	return cluster, executor.NewParsl(cluster, container.NewBuilder(registry), tmClusterLink())
}

// connectQueue returns a broker connection for a TM site: a fresh
// WAN-shaped TCP client when the testbed runs in WAN mode, the
// in-process adapter otherwise.
func (tb *Testbed) connectQueue() (taskmanager.QueueAPI, *queue.Client, error) {
	if tb.queueAddr == "" {
		return taskmanager.BrokerAdapter{B: tb.MS.Broker()}, nil, nil
	}
	wan := netsim.RTT(simconst.D(simconst.RTTManagementToTM), simconst.WANBandwidth)
	conn, err := net.Dial("tcp", tb.queueAddr)
	if err != nil {
		return nil, nil, err
	}
	client := queue.NewClient(netsim.Wrap(conn, wan))
	return client, client, nil
}

// startSite (re)starts the TM process of a site: a queue connection is
// dialed, the TM registers itself, and the site record is updated. The
// previous connection, if any, is closed.
func (tb *Testbed) startSite(id string, st *site) error {
	q, client, err := tb.connectQueue()
	if err != nil {
		return err
	}
	tm, err := taskmanager.New(taskmanager.Config{
		ID:                id,
		Queue:             q,
		Executors:         st.execs,
		Memoize:           st.memoize,
		Pullers:           st.pullers,
		HeartbeatInterval: tb.opts.Heartbeat,
	})
	if err != nil {
		if client != nil {
			client.Close()
		}
		return err
	}
	if st.client != nil {
		st.client.Close()
	}
	st.client = client
	st.tm = tm
	return nil
}

// AddTM attaches an additional Task Manager site to the testbed: its
// own registry, mini cluster and parsl executor, connected to the
// Management Service's broker — over the same WAN shaping as the first
// site when the testbed runs in WAN mode. Multi-site experiments
// (distributed pipelines, disjoint placements, chaos scenarios) build
// on it.
func (tb *Testbed) AddTM(id string, nodes int) (*taskmanager.TM, error) {
	if nodes <= 0 {
		nodes = 4
	}
	if _, dup := tb.sites[id]; dup {
		return nil, fmt.Errorf("bench: site %q already exists", id)
	}
	_, parsl := newCluster(container.NewRegistry(), nodes)

	st := &site{execs: map[string]executor.Executor{"parsl": parsl}, pullers: 8}
	if err := tb.startSite(id, st); err != nil {
		return nil, err
	}
	tb.sites[id] = st
	tb.siteOrder = append(tb.siteOrder, id)
	return st.tm, nil
}

// KillTM kills a site's TM process the way `kill -9` would: pull loops
// and heartbeats stop instantly, claimed tasks never get replies, and
// the site's executors (the cluster's pods) keep running. The
// Management Service notices via its liveness window. The site record
// survives so RestartTM can bring the process back.
func (tb *Testbed) KillTM(id string) error {
	st, ok := tb.sites[id]
	if !ok {
		return fmt.Errorf("bench: unknown site %q", id)
	}
	st.tm.Kill()
	return nil
}

// RestartTM starts a fresh TM process for a previously killed (or
// closed) site, reattaching it to the site's surviving executors —
// deployments made before the kill are intact, exactly as pods survive
// a TM crash. The new process registers with the Management Service
// immediately.
func (tb *Testbed) RestartTM(id string) (*taskmanager.TM, error) {
	st, ok := tb.sites[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown site %q", id)
	}
	if err := tb.startSite(id, st); err != nil {
		return nil, err
	}
	if id == "cooley-tm-1" {
		tb.TM = st.tm
	}
	return st.tm, nil
}

// Service returns the current Management Service. Prefer it over the
// MS field wherever a restart_ms fault may swap the service mid-run —
// a bare field read would race the swap.
func (tb *Testbed) Service() *core.Service {
	tb.msMu.RLock()
	defer tb.msMu.RUnlock()
	return tb.MS
}

// RestartMS kills the Management Service and boots a fresh one over
// the same durable store — the way an operator restarts dlhub-server
// with the same -data-dir after a crash. Nothing is checkpointed on
// the way down (Close never persists), so everything the new service
// knows comes from the last checkpoint plus the WAL tail. Every TM
// process is restarted too: their queue connections point into the
// dead broker, exactly as real TMs must redial a restarted server.
// Their executors (and pods) survive, as on a real TM restart.
//
// The recovered state must fingerprint-identical to the state at kill
// time; a mismatch is returned as an error with the two fingerprints,
// making the scenario harness's restart_ms fault a recovery proof, not
// just a disruption.
func (tb *Testbed) RestartMS() error {
	if tb.wal == nil {
		return fmt.Errorf("bench: RestartMS requires Options.DataDir (no durable store to recover from)")
	}
	before := tb.MS.StateFingerprint()

	// Tear the control plane down: TM processes first (their pull loops
	// target the dying broker), then the service, its store, and the
	// WAN queue server.
	for _, id := range tb.siteOrder {
		tb.sites[id].tm.Kill()
	}
	tb.MS.Close()
	tb.wal.Close()
	if tb.queueSrv != nil {
		tb.queueSrv.Close()
		tb.queueSrv = nil
	}

	w, err := store.Open(store.Options{Dir: tb.opts.DataDir, Sync: false})
	if err != nil {
		return fmt.Errorf("bench: reopen durable store: %w", err)
	}
	tb.wal = w
	cfg := tb.msCfg
	cfg.Store = w
	ms := core.New(cfg)
	if _, err := ms.Recover(); err != nil {
		return fmt.Errorf("bench: recover: %w", err)
	}
	tb.msMu.Lock()
	tb.MS = ms
	tb.msMu.Unlock()

	if tb.opts.WAN {
		tb.queueSrv = queue.NewServer(ms.Broker())
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		wan := netsim.RTT(simconst.D(simconst.RTTManagementToTM), simconst.WANBandwidth)
		go tb.queueSrv.Serve(netsim.NewListener(l, wan)) //nolint:errcheck
		tb.queueAddr = l.Addr().String()
	}
	for _, id := range tb.siteOrder {
		if err := tb.startSite(id, tb.sites[id]); err != nil {
			return fmt.Errorf("bench: restart site %s: %w", id, err)
		}
	}
	tb.TM = tb.sites[tb.siteOrder[0]].tm
	if err := ms.WaitForTM(len(tb.siteOrder), 10*time.Second); err != nil {
		return err
	}
	if after := ms.StateFingerprint(); after != before {
		return fmt.Errorf("bench: recovered state differs from pre-restart state\n--- before restart\n%s--- after recovery\n%s", before, after)
	}
	return nil
}

// ExecutorReplicas reports the actual replica count a site executor is
// running for a servable (0 for unknown routes) — ground truth for
// autoscaler tests and the autoscale ablation, independent of the
// Management Service's desired-state view.
func (tb *Testbed) ExecutorReplicas(route, servableID string) int {
	ex, ok := tb.execs[route]
	if !ok {
		return 0
	}
	return ex.Replicas(servableID)
}

// Close tears the deployment down.
func (tb *Testbed) Close() {
	// Extra sites first, the primary last (it owns the shared executors
	// the comparators were built on), the service after its TMs.
	for i := len(tb.siteOrder) - 1; i >= 0; i-- {
		st := tb.sites[tb.siteOrder[i]]
		if st.tm != nil {
			st.tm.Close()
		}
		if st.client != nil {
			st.client.Close()
		}
	}
	if tb.queueSrv != nil {
		tb.queueSrv.Close()
	}
	if tb.MS != nil {
		tb.MS.Close()
	}
	if tb.wal != nil {
		tb.wal.Close()
	}
}

// PublishPaperServables publishes and deploys the six §V-A servables on
// the parsl executor with the given replica count, returning their
// published IDs keyed by short name.
func (tb *Testbed) PublishPaperServables(caller core.Caller, replicas int, seed int64) (map[string]string, error) {
	pkgs, err := servable.PaperServables(seed)
	if err != nil {
		return nil, err
	}
	ids := make(map[string]string, len(pkgs))
	for name, pkg := range pkgs {
		id, err := tb.MS.Publish(context.Background(), caller, pkg)
		if err != nil {
			return nil, fmt.Errorf("bench: publish %s: %w", name, err)
		}
		if err := tb.MS.Deploy(context.Background(), caller, id, replicas, "parsl"); err != nil {
			return nil, fmt.Errorf("bench: deploy %s: %w", name, err)
		}
		ids[name] = id
	}
	return ids, nil
}
