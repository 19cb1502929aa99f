// Package taskmanager implements the DLHub Task Manager of §IV-B: a
// per-site agent that "is responsible for monitoring the DLHub task
// queue(s) and then executing waiting tasks ... deploying servables
// using one of the supported executors and then routing tasks to
// appropriate servables. When a Task Manager is first deployed it
// registers itself with the Management Service and specifies which
// executors and DLHub servables it can launch."
//
// The Task Manager also owns the memoization cache of §V-B2/§V-B5: "Parsl
// maintains a cache at the Task Manager, greatly reducing serving
// latency" — cached hits answer without touching the cluster at all,
// the structural contrast with Clipper's in-cluster cache. It is the
// second memoization tier: the Management Service's result cache
// (internal/core/cache.go) answers repeats before routing, and the TM
// cache covers repeats that still reach this site (e.g. after a
// service-layer TTL expiry or NoCache runs).
package taskmanager

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/rpc"
	"repro/internal/schema"
	"repro/internal/servable"
)

// RegisterQueue is the queue Task Managers announce themselves on.
const RegisterQueue = "dlhub.register"

// TaskQueue returns the task queue name for a TM id.
func TaskQueue(tmID string) string { return "dlhub.tasks." + tmID }

// Task is one queued task; EncodeTask and DecodeTask are its wire format.
type Task struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"` // run | run_batch | pipeline | deploy | scale | undeploy | drain | ping
	Servable string `json:"servable,omitempty"`
	// Executor routes deploys ("parsl" default; "tfserving-grpc",
	// "tfserving-rest", "sagemaker", "clipper" for comparisons).
	Executor string `json:"executor,omitempty"`
	// Input and Inputs are the request payload. The Management Service
	// puts the client's JSON on the task as the door compacted it
	// (json.RawMessage) and the Task Manager hands the same bytes to the
	// executor: neither decodes them, the servable does.
	Input    any               `json:"input,omitempty"`
	Inputs   []json.RawMessage `json:"inputs,omitempty"` // batch
	Steps    []string          `json:"steps,omitempty"`  // pipeline
	Replicas int               `json:"replicas,omitempty"`
	NoMemo   bool              `json:"no_memo,omitempty"` // per-task memo override
	// Tenant is the submitting tenant's tag ("" = anonymous): set by
	// the Management Service from the resolved caller, carried on the
	// task record and the queue fairness lane.
	Tenant string `json:"tenant,omitempty"`
	// Package carries the servable package for deploys.
	Package *PackageWire `json:"package,omitempty"`
}

// PackageWire is the JSON-safe servable package.
type PackageWire struct {
	Doc        json.RawMessage   `json:"doc"`
	Components map[string][]byte `json:"components,omitempty"`
}

// Reply is a task result; EncodeReply and DecodeReply are its wire
// format. Output and Outputs hold what the executor returned: the pod's
// encoding as a json.RawMessage (executor.DecodeResult), which the reply
// frame carries as it is, or a Go value, which it encodes — once either
// way; the Management Service forwards the bytes.
type Reply struct {
	TaskID     string
	OK, Cached bool
	Error      string
	Output     any
	Outputs    []any
	// Timings (µs): inference measured at the servable, invocation
	// measured at the Task Manager (§V-A metrics).
	InferenceMicros, InvocationMicros int64
	// Steps decomposes a pipeline reply per step, in execution order.
	// The TM-local monolith path fills the executor-side timings; the
	// Management Service's distributed path adds MS-side request time
	// and cache flags.
	Steps []StepStat
}

// StepStat reports one pipeline step's execution: where the time went
// and whether a cache tier answered instead of a servable.
type StepStat struct {
	Servable string `json:"servable"`
	// Version is the step's published version at execution time. The
	// TM monolith leaves it 0 — the repository lives at the Management
	// Service, not here.
	Version int `json:"version,omitempty"`
	// InferenceMicros/InvocationMicros are the executor-side timings
	// for this step alone.
	InferenceMicros  int64 `json:"inference_us,omitempty"`
	InvocationMicros int64 `json:"invocation_us,omitempty"`
	// RequestMicros is the MS-side per-step round trip (routing +
	// queue + execute + reply); zero on the TM-local monolith path,
	// which makes the two execution modes distinguishable in a reply.
	RequestMicros int64 `json:"request_us,omitempty"`
	// Cached/CacheHit mirror Reply.Cached and the service-layer
	// cache-hit flag for the individual step (distributed path only).
	Cached   bool `json:"cached,omitempty"`
	CacheHit bool `json:"cache_hit,omitempty"`
}

// Registration announces a TM to the Management Service. Heartbeat
// re-registrations also carry the TM's current queue-depth view, so the
// service-side autoscaler can see load that has already left the broker
// but not yet finished executing.
type Registration struct {
	TMID      string   `json:"tm_id"`
	Executors []string `json:"executors"`
	// Active counts tasks currently executing at this TM (pulled from
	// the queue, reply not yet sent). Zero on initial registration.
	Active int `json:"active,omitempty"`
	// Draining acknowledges a drain: the TM has received the drain task
	// and expects no new work. The Management Service treats it as
	// authoritative — a service that restarted (losing its drain marks)
	// re-learns the state from the next heartbeat.
	Draining bool `json:"draining,omitempty"`
}

// QueueAPI abstracts the broker connection (in-process broker or remote
// netsim-shaped client).
type QueueAPI interface {
	Push(queueName string, body []byte, replyTo, correlationID, tenant string) (string, error)
	Pull(queueName string, timeout time.Duration) (queue.Message, bool, error)
	Ack(queueName, msgID string) error
	Reply(msg queue.Message, body []byte) error
}

// BrokerAdapter adapts an in-process *queue.Broker to QueueAPI.
type BrokerAdapter struct{ B *queue.Broker }

// Push implements QueueAPI.
func (a BrokerAdapter) Push(q string, body []byte, replyTo, corr, tenant string) (string, error) {
	return a.B.Push(q, body, replyTo, corr, tenant), nil
}

// Pull implements QueueAPI.
func (a BrokerAdapter) Pull(q string, timeout time.Duration) (queue.Message, bool, error) {
	msg, ok := a.B.Pull(q, timeout)
	return msg, ok, nil
}

// Ack implements QueueAPI.
func (a BrokerAdapter) Ack(q, id string) error { a.B.Ack(q, id); return nil }

// Reply implements QueueAPI.
func (a BrokerAdapter) Reply(msg queue.Message, body []byte) error { a.B.Reply(msg, body); return nil }

// Config configures a Task Manager.
type Config struct {
	ID string
	// Queue is the broker connection (shaped by netsim for remote TMs).
	Queue QueueAPI
	// Executors available at this site, keyed by route name. "parsl"
	// is the default route.
	Executors map[string]executor.Executor
	// Memoize enables the TM-side cache.
	Memoize bool
	// Pullers is the number of concurrent queue pullers (default 4).
	Pullers int
	// HeartbeatInterval re-announces the TM to the Management Service
	// so it can detect dead sites (0 disables heartbeats).
	HeartbeatInterval time.Duration
}

// TM is a running Task Manager.
type TM struct {
	cfg Config

	memoMu sync.RWMutex
	memo   map[string]Reply // key -> the reply as first computed (read-only)
	memoOn bool
	// memoKeys indexes memo keys per servable so deploy/undeploy can
	// drop exactly that servable's entries: a redeploy may carry a
	// different model under the same name (notably republish-after-
	// unpublish, which restarts at version 1), and its memoized
	// outputs must not survive it — nor linger unreachable.
	memoKeys map[string]map[string]struct{}

	// servable -> executor route, set at deploy time.
	routeMu sync.RWMutex
	routes  map[string]string

	stop     chan struct{}
	stopOnce sync.Once
	// ctx is the TM lifetime context: executor invocations run under it
	// so Close cancels in-flight work instead of orphaning it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	statMu    sync.Mutex
	completed uint64
	hits      uint64
	active    int
	// draining is set by a drain task (and cleared by a rejoin task);
	// heartbeats carry it back to the Management Service as the drain
	// acknowledgement.
	draining bool
	// killed marks an abrupt Kill(): the TM must behave like a kill -9
	// victim, so every reply still on its way out is suppressed — the
	// Management Service's dead-TM watchdog is what must observe the
	// loss, not a polite error reply.
	killed bool

	// reg is the registration body template re-marshaled (with the
	// current active count) on every heartbeat.
	reg Registration
}

// New creates and registers a Task Manager and starts its pull loops.
func New(cfg Config) (*TM, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("taskmanager: ID required")
	}
	if cfg.Queue == nil {
		return nil, fmt.Errorf("taskmanager: queue connection required")
	}
	if len(cfg.Executors) == 0 {
		return nil, fmt.Errorf("taskmanager: at least one executor required")
	}
	if cfg.Pullers <= 0 {
		cfg.Pullers = 4
	}
	tm := &TM{
		cfg:      cfg,
		memo:     make(map[string]Reply),
		memoOn:   cfg.Memoize,
		memoKeys: make(map[string]map[string]struct{}),
		routes:   make(map[string]string),
		stop:     make(chan struct{}),
	}
	tm.ctx, tm.cancel = context.WithCancel(context.Background())
	// Register with the Management Service.
	execs := make([]string, 0, len(cfg.Executors))
	for name := range cfg.Executors {
		execs = append(execs, name)
	}
	tm.reg = Registration{TMID: cfg.ID, Executors: execs}
	reg, err := json.Marshal(tm.reg)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.Queue.Push(RegisterQueue, reg, "", "", ""); err != nil {
		return nil, fmt.Errorf("taskmanager: registration failed: %w", err)
	}
	for i := 0; i < cfg.Pullers; i++ {
		tm.wg.Add(1)
		go tm.pullLoop()
	}
	if cfg.HeartbeatInterval > 0 {
		tm.wg.Add(1)
		go tm.heartbeatLoop()
	}
	return tm, nil
}

// heartbeatLoop re-sends the registration periodically; the Management
// Service uses the arrival times for liveness and the carried Active
// count as the TM-side queue-depth signal.
func (tm *TM) heartbeatLoop() {
	defer tm.wg.Done()
	ticker := time.NewTicker(tm.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-tm.stop:
			return
		case <-ticker.C:
			reg := tm.reg
			reg.Active = tm.Active()
			reg.Draining = tm.Draining()
			if body, err := json.Marshal(reg); err == nil {
				tm.cfg.Queue.Push(RegisterQueue, body, "", "", "") //nolint:errcheck — next beat retries
			}
		}
	}
}

// Active reports how many tasks this TM is currently executing.
func (tm *TM) Active() int {
	tm.statMu.Lock()
	defer tm.statMu.Unlock()
	return tm.active
}

// Draining reports whether this TM has acknowledged a drain.
func (tm *TM) Draining() bool {
	tm.statMu.Lock()
	defer tm.statMu.Unlock()
	return tm.draining
}

// SetMemoize toggles the TM cache (cleared when disabled).
func (tm *TM) SetMemoize(on bool) {
	tm.memoMu.Lock()
	tm.memoOn = on
	if !on {
		tm.memo = make(map[string]Reply)
		tm.memoKeys = make(map[string]map[string]struct{})
	}
	tm.memoMu.Unlock()
}

// Stats reports (completed tasks, cache hits).
func (tm *TM) Stats() (uint64, uint64) {
	tm.statMu.Lock()
	defer tm.statMu.Unlock()
	return tm.completed, tm.hits
}

// Close stops the pull loops (in-flight tasks finish first, but their
// executor invocations are canceled via the TM lifetime context).
// Idempotent, and safe after Kill.
func (tm *TM) Close() {
	tm.stopOnce.Do(func() {
		close(tm.stop)
	})
	tm.cancel()
	tm.wg.Wait()
	for _, ex := range tm.cfg.Executors {
		ex.Close()
	}
}

// Kill stops the Task Manager the way `kill -9` would: pull loops and
// heartbeats stop, in-flight executor invocations are canceled, and —
// unlike Close — no reply (not even a failure reply) leaves the site
// for work it had already claimed. Tasks it was executing stay claimed
// in the broker until the Management Service's dead-TM watchdog purges
// them; its executors are NOT closed, because on a real kill the
// serving pods at the cluster site outlive the dead TM process (a
// restarted TM reattaches to them). Fault-injection hook for chaos
// scenarios; production teardown is Close.
func (tm *TM) Kill() {
	tm.statMu.Lock()
	tm.killed = true
	tm.statMu.Unlock()
	tm.stopOnce.Do(func() {
		close(tm.stop)
	})
	tm.cancel()
	tm.wg.Wait()
}

func (tm *TM) pullLoop() {
	defer tm.wg.Done()
	qname := TaskQueue(tm.cfg.ID)
	for {
		select {
		case <-tm.stop:
			return
		default:
		}
		msg, ok, err := tm.cfg.Queue.Pull(qname, 500*time.Millisecond)
		if err != nil {
			// Connection failure: back off briefly, keep trying (the
			// queue provides at-least-once redelivery).
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if !ok {
			continue
		}
		tm.handle(msg)
	}
}

func (tm *TM) handle(msg queue.Message) {
	task, err := DecodeTask(msg.Body)
	if err != nil {
		tm.reply(msg, Reply{OK: false, Error: "bad task: " + err.Error()})
		return
	}
	tm.statMu.Lock()
	tm.active++
	tm.statMu.Unlock()
	defer func() {
		tm.statMu.Lock()
		tm.active--
		tm.statMu.Unlock()
	}()
	start := time.Now()
	var rep Reply
	switch task.Kind {
	case "ping":
		rep = Reply{OK: true, Output: "pong"}
	case "deploy":
		rep = tm.handleDeploy(task)
	case "scale":
		rep = tm.handleScale(task)
	case "undeploy":
		rep = tm.handleUndeploy(task)
	case "drain":
		rep = tm.handleDrain()
	case "rejoin":
		rep = tm.handleRejoin()
	case "run":
		rep = tm.handleRun(task)
	case "run_batch":
		rep = tm.handleBatch(task)
	case "pipeline":
		rep = tm.handlePipeline(task)
	default:
		rep = Reply{OK: false, Error: fmt.Sprintf("unknown task kind %q", task.Kind)}
	}
	rep.TaskID = task.ID
	if rep.InvocationMicros == 0 {
		rep.InvocationMicros = invocationMicros(start)
	}
	tm.reply(msg, rep)
	tm.statMu.Lock()
	tm.completed++
	tm.statMu.Unlock()
}

func (tm *TM) reply(msg queue.Message, rep Reply) {
	tm.statMu.Lock()
	killed := tm.killed
	tm.statMu.Unlock()
	if killed {
		// A kill -9 victim sends nothing; the claimed message must look
		// lost so the watchdog-and-purge path owns the recovery.
		return
	}
	body, err := EncodeReply(rep)
	if err != nil {
		body, _ = EncodeReply(Reply{TaskID: rep.TaskID, Error: "unserializable reply: " + err.Error()})
	}
	if err := tm.cfg.Queue.Reply(msg, body); errors.Is(err, rpc.ErrFrameTooLarge) {
		// Nothing was sent: unanswered, the task would run again every visibility timeout.
		body, _ = EncodeReply(Reply{TaskID: rep.TaskID, Error: fmt.Sprintf("result of %d bytes exceeds the queue frame", len(body))})
		tm.cfg.Queue.Reply(msg, body) //nolint:errcheck — redelivery handles loss
	}
}

// defaultRoute is the executor route of a task that names none and of a
// servable deployed without one.
const defaultRoute = "parsl"

func (tm *TM) executorFor(task *Task) (executor.Executor, error) {
	route := task.Executor
	if route == "" {
		tm.routeMu.RLock()
		route = tm.routes[task.Servable]
		tm.routeMu.RUnlock()
	}
	if route == "" {
		route = defaultRoute
	}
	ex, ok := tm.cfg.Executors[route]
	if !ok {
		return nil, fmt.Errorf("executor %q not available at %s", route, tm.cfg.ID)
	}
	return ex, nil
}

func (tm *TM) handleDeploy(task *Task) Reply {
	if task.Package == nil {
		return Reply{OK: false, Error: "deploy without package"}
	}
	pkg, err := DecodePackage(task.Package)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	ex, err := tm.executorFor(task)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	replicas := task.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if err := ex.Deploy(pkg, replicas); err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	tm.routeMu.Lock()
	tm.routes[pkg.Doc.ID] = cmp.Or(task.Executor, defaultRoute)
	tm.routeMu.Unlock()
	// A (re)deploy may carry a different model under the same name;
	// drop the previous deployment's memoized outputs.
	tm.invalidateMemo(pkg.Doc.ID)
	return Reply{OK: true, Output: fmt.Sprintf("deployed %s x%d on %s", pkg.Doc.ID, replicas, ex.Name())}
}

func (tm *TM) handleScale(task *Task) Reply {
	ex, err := tm.executorFor(task)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	if err := ex.Scale(task.Servable, task.Replicas); err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	return Reply{OK: true}
}

// handleDrain acknowledges a graceful drain: the TM keeps serving
// whatever is already in its queue (the Management Service counts that
// as in-flight and waits for it), but flags itself draining so every
// subsequent heartbeat confirms the state. Routing exclusion is the
// service's job — this flag is the acknowledgement, not the mechanism.
func (tm *TM) handleDrain() Reply {
	tm.statMu.Lock()
	tm.draining = true
	tm.statMu.Unlock()
	return Reply{OK: true, Output: "draining"}
}

// handleRejoin reverses a drain acknowledgement: the TM stops asserting
// Draining in its heartbeats, so the site reads as routable again once
// the Management Service clears its own mark. The service clears its
// mark only AFTER this ack round-trips — heartbeats marshaled before
// the ack (still carrying Draining) are covered by the service-side
// rejoin grace window.
func (tm *TM) handleRejoin() Reply {
	tm.statMu.Lock()
	tm.draining = false
	tm.statMu.Unlock()
	return Reply{OK: true, Output: "rejoined"}
}

func (tm *TM) handleUndeploy(task *Task) Reply {
	ex, err := tm.executorFor(task)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	if err := ex.Undeploy(task.Servable); err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	tm.routeMu.Lock()
	delete(tm.routes, task.Servable)
	tm.routeMu.Unlock()
	tm.invalidateMemo(task.Servable)
	return Reply{OK: true}
}

// invocationMicros measures elapsed wall time, clamped to ≥1µs: a 0
// reads as "unset" on the wire (omitempty), and sub-microsecond
// executions (trivial servables on fast hosts) must still report that
// an invocation happened.
func invocationMicros(start time.Time) int64 {
	if us := time.Since(start).Microseconds(); us > 0 {
		return us
	}
	return 1
}

// memoKey hashes servable + the input's JSON bytes as the task carried
// them. The Management Service's door compacts a payload, so whitespace
// a client sent never splits entries; member order inside an object does
// (the service-layer cache in front is keyed canonically).
func memoKey(servableID string, input any) string {
	raw, _ := input.(json.RawMessage)
	h := sha256.New()
	h.Write([]byte(servableID))
	h.Write([]byte{0})
	h.Write(raw)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// invalidateMemo drops a servable's memo entries — the deploy/undeploy
// hook. Deleting (rather than epoch-orphaning) keeps the memo map
// bounded across redeploys.
func (tm *TM) invalidateMemo(servableID string) {
	tm.memoMu.Lock()
	for key := range tm.memoKeys[servableID] {
		delete(tm.memo, key)
	}
	delete(tm.memoKeys, servableID)
	tm.memoMu.Unlock()
}

func (tm *TM) handleRun(task *Task) Reply {
	start := time.Now()
	// Memoization check — served entirely at the TM (§V-B5).
	useMemo := false
	var key string
	tm.memoMu.RLock()
	useMemo = tm.memoOn && !task.NoMemo
	tm.memoMu.RUnlock()
	if useMemo {
		key = memoKey(task.Servable, task.Input)
		tm.memoMu.RLock()
		rep, ok := tm.memo[key]
		tm.memoMu.RUnlock()
		if ok {
			rep.Cached = true
			rep.InferenceMicros = 0
			rep.InvocationMicros = invocationMicros(start)
			tm.statMu.Lock()
			tm.hits++
			tm.statMu.Unlock()
			return rep
		}
	}

	ex, err := tm.executorFor(task)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	res, err := ex.Invoke(tm.ctx, task.Servable, task.Input)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	rep := Reply{
		OK:               true,
		Output:           res.Output,
		InferenceMicros:  res.InferenceMicros,
		InvocationMicros: invocationMicros(start),
	}
	if useMemo {
		tm.memoMu.Lock()
		tm.memo[key] = rep
		keys := tm.memoKeys[task.Servable]
		if keys == nil {
			keys = make(map[string]struct{})
			tm.memoKeys[task.Servable] = keys
		}
		keys[key] = struct{}{}
		tm.memoMu.Unlock()
	}
	return rep
}

// handleBatch fans a batch out to the executor concurrently, amortizing
// queue and WAN costs over many requests (§V-B3).
func (tm *TM) handleBatch(task *Task) Reply {
	start := time.Now()
	ex, err := tm.executorFor(task)
	if err != nil {
		return Reply{OK: false, Error: err.Error()}
	}
	outs := make([]any, len(task.Inputs))
	errs := make([]error, len(task.Inputs))
	var totalInf int64
	var infMu sync.Mutex
	var wg sync.WaitGroup
	for i, input := range task.Inputs {
		wg.Add(1)
		go func(i int, input json.RawMessage) {
			defer wg.Done()
			res, err := ex.Invoke(tm.ctx, task.Servable, input)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Output
			infMu.Lock()
			totalInf += res.InferenceMicros
			infMu.Unlock()
		}(i, input)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Reply{OK: false, Error: fmt.Sprintf("batch item %d: %v", i, err)}
		}
	}
	return Reply{
		OK:               true,
		Outputs:          outs,
		InferenceMicros:  totalInf,
		InvocationMicros: invocationMicros(start),
	}
}

// handlePipeline chains steps server-side: "data are automatically
// passed between each servable in the pipeline, meaning the entire
// execution is performed server-side" (§VI-D). This is the TM-local
// fast path: the Management Service routes a whole pipeline here only
// when every step is deployed on this one TM; otherwise it orchestrates
// the steps itself across sites (core.runPipelineSteps).
func (tm *TM) handlePipeline(task *Task) Reply {
	start := time.Now()
	if len(task.Steps) < 2 {
		return Reply{OK: false, Error: "pipeline needs at least 2 steps"}
	}
	current := task.Input
	var totalInf int64
	stats := make([]StepStat, 0, len(task.Steps))
	for _, step := range task.Steps {
		stepStart := time.Now()
		stepTask := &Task{Servable: step, Executor: task.Executor, Input: current}
		ex, err := tm.executorFor(stepTask)
		if err != nil {
			return Reply{OK: false, Error: fmt.Sprintf("step %s: %v", step, err)}
		}
		res, err := ex.Invoke(tm.ctx, step, current)
		if err != nil {
			return Reply{OK: false, Error: fmt.Sprintf("step %s: %v", step, err)}
		}
		current = res.Output
		totalInf += res.InferenceMicros
		stats = append(stats, StepStat{
			Servable:         step,
			InferenceMicros:  res.InferenceMicros,
			InvocationMicros: invocationMicros(stepStart),
		})
	}
	return Reply{
		OK:               true,
		Output:           current,
		InferenceMicros:  totalInf,
		InvocationMicros: invocationMicros(start),
		Steps:            stats,
	}
}

// EncodePackage converts a servable package to wire form.
func EncodePackage(pkg *servable.Package) (*PackageWire, error) {
	doc, err := json.Marshal(pkg.Doc)
	if err != nil {
		return nil, err
	}
	return &PackageWire{Doc: doc, Components: pkg.Components}, nil
}

// DecodePackage reverses EncodePackage.
func DecodePackage(w *PackageWire) (*servable.Package, error) {
	pkg := &servable.Package{Components: w.Components}
	pkg.Doc = new(schema.Document)
	if err := json.Unmarshal(w.Doc, pkg.Doc); err != nil {
		return nil, fmt.Errorf("taskmanager: bad package doc: %w", err)
	}
	return pkg, nil
}
