// Package core implements the DLHub Management Service (§IV-A), "the
// user-facing interface to DLHub. It enables users to publish models,
// query available models, execute tasks (e.g., inference), construct
// pipelines, and monitor the status of tasks", with "advanced
// functionality to build models, optimize task performance, route
// workloads to suitable executors, batch tasks, and cache results."
//
// The service owns the model repository (validation, versioning,
// container building, search indexing), the ZeroMQ-style task queue to
// registered Task Managers, synchronous and asynchronous task
// execution, batching, pipelines and access control via the auth
// substrate. Service has three jobs, each stated once:
//
//   - Repository (repository.go): one self-locking type holds every
//     version of every servable and the search index. Installed
//     documents are immutable — a metadata edit installs an edited copy
//     — so readers, the WAL and checkpoints share pointers and never
//     copy, and the index changes only in the critical section that
//     changes the entry it describes.
//   - Serving (this file): run, runBatch and every pipeline step end in
//     serve — result cache, singleflight, admission by weight, dispatch
//     — over the routing table (routing.go): one record per Task Manager
//     and one per servable under their own lock, so the hot path never
//     waits for a repository write, and one liveness predicate that both
//     routing and the dead-TM fan-out read. Pipelines are service-
//     orchestrated: each step routes, caches and accounts demand
//     independently, with a TM-local monolith fast path when every step
//     is co-deployed on one site (pipeline.go).
//   - HTTP (http_v2.go): the REST API wraps the methods here; most
//     routes are a plain function behind the one endpoint adapter that
//     resolves the caller, decodes the body and writes the envelope.
//     Benches and tests may also drive the service in-process.
//
// Two serving-layer mechanisms extend the paper's design for multi-TM
// deployments: a service-layer result cache with singleflight
// de-duplication (cache.go) that answers repeated identical requests
// before routing, and least-outstanding-requests routing
// (routingTable.pick) that sends new work to the idlest live Task
// Manager instead of blind round-robin. See docs/ARCHITECTURE.md for
// the request lifecycle and the lock order.
//
// The API is context-first: Run, RunBatch, Publish, Search, Deploy and
// Scale take a context whose cancellation or deadline
// propagates through routing, the queue and the reply wait —
// a canceled request frees its TM load slot immediately, withdraws its
// still-unclaimed task, and releases its singleflight followers.
// Failures are classified *Error values (errors.go) with stable codes
// mapped to HTTP statuses; the wire surface is /api/v2 (http_v2.go).
//
// A request's input is never decoded here: it is JSON bytes from the
// HTTP body (or from one json.Marshal of an in-process caller's value)
// to the servable, keyed for the cache and put on the task as bytes
// (docs/ARCHITECTURE.md, "Payload path"); a result's output comes back
// the same way, the host's bytes to the HTTP response ("Result path").
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/store"
	"repro/internal/taskmanager"
	"repro/internal/transfer"
)

// Config configures the Management Service.
type Config struct {
	// Auth enables authentication; nil runs the service open (benches).
	Auth *auth.Service
	// RequireAuth (with Auth set) makes bearer tokens mandatory: a
	// request with no (or an invalid) Authorization header is rejected
	// 401 instead of falling back to the anonymous caller, and the
	// X-DLHub-Tenant development shim is rejected outright. This is what
	// `dlhub-server -auth` turns on; tests that want optional auth set
	// Auth alone.
	RequireAuth bool
	// RunScope is the Globus Auth scope required to invoke servables.
	RunScope string
	// AuthClientID is the resource-server client (registered on Auth)
	// that login tokens are issued for — the Management Service's own
	// client identity (auth_http.go).
	AuthClientID string
	// AuthProvider is the identity provider register/login requests
	// target when they name none ("" = "local").
	AuthProvider string
	// Registry stores built servable container images.
	Registry *container.Registry
	// TaskTimeout bounds synchronous task execution (default 120s).
	TaskTimeout time.Duration
	// Transfer enables publish-by-reference: model components named as
	// globus:// URIs are downloaded from endpoints at publication time
	// (§IV-A). Nil disables reference resolution.
	Transfer *transfer.Service
	// TransferClientID is the downstream resource server used to mint
	// dependent tokens for endpoint access (§IV-D); its scopes must
	// include TransferScope.
	TransferClientID string
	// TransferScope is the scope requested on dependent tokens.
	TransferScope string
	// TMStaleAfter drops Task Managers from routing when no
	// registration/heartbeat arrived within this window (0 disables
	// liveness filtering).
	TMStaleAfter time.Duration
	// Cache tunes the service-layer result cache (zero value: enabled
	// with defaults; set Disabled to turn it off).
	Cache CacheConfig
	// LogRequests enables HTTP access logging at the door (off by
	// default: benches and tests stay quiet).
	LogRequests bool
	// AutoscaleInterval is the autoscaler control-loop tick (default
	// 1s). The loop is idle-cheap: with no enabled policies a tick is a
	// map read under a mutex.
	AutoscaleInterval time.Duration
	// MaxQueue is the service-wide admission-control default: when > 0,
	// synchronous runs for a servable whose pending demand (admitted,
	// not yet answered) reaches this bound fail fast with ErrOverloaded
	// instead of queueing. A per-servable AutoscalePolicy.MaxQueue
	// overrides it.
	MaxQueue int
	// TaskRetention bounds how long a finished async task stays
	// queryable: a completed/failed task is deleted this long after it
	// finished, by the first read or write of the task table past that
	// point (default 15m; < 0 retains forever). Without it the task
	// table grows one entry per async run for the service lifetime.
	TaskRetention time.Duration
	// FailoverRetries bounds how many times one synchronous run may be
	// re-dispatched after its routed Task Manager misses the liveness
	// window mid-request (default 2; < 0 disables dead-TM failover).
	// Failover requires TMStaleAfter > 0 — without a liveness window
	// there is no dead-TM signal to act on.
	FailoverRetries int
	// Store is the durability seam (durable.go): every durable change
	// commits a record to it before it is applied, and Recover replays
	// it at boot. Nil disables durable logging entirely — tests and the
	// bench testbed pay nothing.
	Store *store.WAL
}

// Service is the Management Service.
type Service struct {
	cfg     Config
	broker  *queue.Broker
	builder *container.Builder

	// repo is the model repository: documents, versions, components and
	// the search index, under its own lock (repository.go).
	repo *repository

	// cache is the service-layer result cache and the registry of the
	// misses in flight that identical requests collapse onto (nil when
	// disabled).
	cache *resultCache

	// route is the routing table (routing.go): one record per TM —
	// registration, heartbeat freshness and the liveness timer that fans
	// errTMLost out to its in-flight dispatches, load, drain mark — and
	// one per servable — placements, desired replicas, in-flight and
	// admission counters — under its own lock, so the serving hot path
	// never contends with repository writes. Neither lock is held while
	// the other is taken.
	route *routingTable

	// commitMu serializes durable changes from their check to their
	// apply (commit, durable.go). It is the outermost lock.
	commitMu sync.Mutex

	// failover counters (lifecycle.go): dispatches aborted because their
	// TM went silent, re-dispatches to another site, and requests that
	// ran out of budget or sites.
	failoverLost         atomic.Uint64
	failoverRedispatched atomic.Uint64
	failoverExhausted    atomic.Uint64

	// tasks are the async runs by task ID, each pending until its run
	// finishes and then kept for TaskRetention (outcomes.go).
	tasks *outcomes[string, AsyncTask]

	// idem holds the idempotency-keyed v2 executions and their
	// responses for replay (idempotency.go).
	idem *outcomes[string, idemReply]

	// scaler is the replica autoscaler (autoscaler.go); its control
	// loop runs for the service lifetime.
	scaler *autoscaler

	// tenants is the quota/priority registry (tenancy.go) — shared
	// with cfg.Auth when authentication is on, standalone in open
	// mode so quota admin always works. Each tenant's enforcement state
	// (reservations, rate bucket, admission counters) is a record in
	// the routing table.
	tenants *auth.TenantRegistry

	// users is the durable identity table (auth_http.go): registrations
	// accepted over HTTP, keyed provider/username, mirrored into
	// cfg.Auth when authentication is on, and rebuilt from the
	// checkpoint + WAL on recovery — so accounts survive restarts even
	// though tokens deliberately do not.
	userMu sync.Mutex
	users  map[string]userRecord

	// door is the HTTP mux and the per-route counters (middleware.go),
	// mounted in New and read-only afterwards.
	door *door

	regWG    sync.WaitGroup
	timeFunc func() time.Time
	// lifeCtx is the service lifetime context and its one stop signal:
	// background work (async runs, autoscaler ticks and scale tasks,
	// registrations) runs under it so Close aborts it instead of leaving
	// it to its own deadlines.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// AsyncTask tracks an asynchronous invocation (§IV-A: "the Management
// Service returns a unique task UUID that can be used subsequently to
// monitor the status of the task and retrieve its result").
type AsyncTask struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"` // pending | completed | failed
	Tenant   string    `json:"tenant,omitempty"`
	Reply    *Reply    `json:"reply,omitempty"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished,omitempty"`
}

// New creates a Management Service with its own broker.
func New(cfg Config) *Service {
	if cfg.TaskTimeout <= 0 {
		cfg.TaskTimeout = 120 * time.Second
	}
	if cfg.TaskRetention == 0 {
		cfg.TaskRetention = 15 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = container.NewRegistry()
	}
	s := &Service{
		cfg: cfg,
		// Visibility must exceed the longest single task (large batch
		// chunks in the Fig. 7 sweeps run for minutes at one replica);
		// redelivery is for lost Task Managers, not slow ones.
		broker:   queue.NewBroker(10 * time.Minute),
		builder:  container.NewBuilder(cfg.Registry),
		repo:     newRepository(),
		tasks:    newOutcomes[string, AsyncTask](cfg.TaskRetention, 0, 0),
		idem:     newOutcomes[string, idemReply](idemTTL, idemMax, 0),
		timeFunc: time.Now,
		users:    make(map[string]userRecord),
		door:     newDoor(),
	}
	s.routesV2(s.door)
	if cfg.Auth != nil {
		s.tenants = cfg.Auth.Tenants()
	} else {
		s.tenants = auth.NewTenantRegistry()
	}
	s.route = newRoutingTable(cfg.TMStaleAfter, func() time.Time { return s.timeFunc() })
	s.tasks.now = func() time.Time { return s.timeFunc() } // retention counts from AsyncTask.Finished
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	if !cfg.Cache.Disabled {
		s.cache = newResultCache(cfg.Cache)
	}
	s.scaler = newAutoscaler(s, cfg.AutoscaleInterval)
	s.regWG.Add(1)
	go s.registrationLoop()
	s.regWG.Add(1)
	go s.scaler.loop()
	if cfg.Store != nil {
		// The store compacts its log by writing the whole repository as
		// records through this hook; registration must precede Recover so
		// the post-replay fold-in can run.
		cfg.Store.SetCheckpointer(s.writeCheckpoint)
	}
	return s
}

// Broker exposes the service's queue broker so Task Managers (local or
// remote via queue.Server) can connect to it.
func (s *Service) Broker() *queue.Broker { return s.broker }

// Close shuts the service down: background loops stop, and in-flight
// dispatches — synchronous callers included — are canceled with
// ErrCanceled (routingTable.stop) rather than stranded until their own
// deadlines. Safe to call more than once: every step is.
func (s *Service) Close() {
	s.lifeCancel()
	s.regWG.Wait()
	s.route.stop()
	s.broker.Close()
}

// registrationLoop consumes TM registrations.
func (s *Service) registrationLoop() {
	defer s.regWG.Done()
	for s.lifeCtx.Err() == nil {
		// Bounded by the lifetime ctx, so Close does not sit out a poll.
		msg, ok := s.broker.PullCtx(s.lifeCtx, taskmanager.RegisterQueue, 300*time.Millisecond)
		if !ok {
			continue
		}
		var reg taskmanager.Registration
		if err := json.Unmarshal(msg.Body, &reg); err == nil && reg.TMID != "" {
			s.route.beat(reg.TMID, reg.Active)
		}
		s.broker.Ack(taskmanager.RegisterQueue, msg.ID)
	}
}

// TaskManagers lists registered TMs.
func (s *Service) TaskManagers() []string {
	return s.route.snapshotTMs().registered
}

// WaitForTM blocks until at least n Task Managers are registered.
func (s *Service) WaitForTM(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if len(s.TaskManagers()) >= n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%w: %d registered after %v", ErrNoTaskManager, len(s.TaskManagers()), timeout)
}

// queueDepth reports broker-side backlog per Task Manager: tasks ready
// on its queue (pushed, not yet pulled) plus tasks pulled but
// unacknowledged. The broker lives with the Management Service, so this
// view is exact for local and remote TMs alike.
func (s *Service) queueDepth(tms []string) map[string]int {
	depth := make(map[string]int, len(tms))
	for _, id := range tms {
		q := taskmanager.TaskQueue(id)
		depth[id] = s.broker.Len(q) + s.broker.InFlight(q)
	}
	return depth
}

// queueStats is the stats payload's queue block. The dispatch inbox:
// pending_requests drains to zero when idle (anything else is a leak);
// orphan_replies counts answers that found no requester — late after a
// cancel or timeout, or the second answer of a task redelivered past
// the visibility timeout (at-least-once: it ran twice, it answers
// once). The credit layer: consumers registered (TM sessions and
// in-process waits), the credit each registered TM's session holds (its
// idle pullers), and the push frames written to sessions and failed.
func (s *Service) queueStats() map[string]any {
	consumers, byQueue, pushes, failures := s.broker.ConsumerStats()
	credit := make(map[string]int)
	for _, id := range s.TaskManagers() {
		credit[id] = byQueue[taskmanager.TaskQueue(id)]
	}
	return map[string]any{
		"pending_requests": s.broker.PendingRequests(),
		"orphan_replies":   s.broker.OrphanReplies(),
		"consumers":        consumers,
		"credit":           credit,
		"pushes":           pushes,
		"push_failures":    failures,
	}
}

// ServableLoad reports the in-flight (dispatched, not yet answered)
// run/batch/pipeline task count for one servable — the demand signal
// the autoscaler steers on.
func (s *Service) ServableLoad(servableID string) int {
	return s.route.servableLoad(servableID)
}

// LiveTaskManagers lists TMs passing the liveness filter.
func (s *Service) LiveTaskManagers() []string {
	return s.route.snapshotTMs().live
}

// WatcherStats snapshots the dead-TM watch's footprint (the
// /api/v2/stats "watcher" block).
func (s *Service) WatcherStats() WatcherStats { return s.route.stats() }

// --- identity ---------------------------------------------------------------

// Caller is a resolved request identity. Tenant is the accounting
// tag the admission layer and broker fairness key on: "" means the
// anonymous/default tenant (unmapped identities, open mode), which
// carries no quota and lands in the broker's default lane — the
// pre-tenancy behavior, byte for byte.
type Caller struct {
	IdentityID string
	Principals []string
	Tenant     string
}

// Anonymous is the unauthenticated caller: it matches the public
// principal plus its own identity URN (so anonymous publishers can see
// their own owner-only documents in search results).
var Anonymous = Caller{
	IdentityID: "urn:anonymous",
	Principals: []string{auth.PublicPrincipal, "urn:anonymous"},
}

// ResolveCaller introspects a bearer token. With no Auth configured,
// every caller is anonymous-with-public access; with Auth configured
// but not required, a missing header still resolves anonymous (the
// optional-auth mode tests use). Under RequireAuth a missing header is
// an authentication failure — there is no anonymous fallback.
func (s *Service) ResolveCaller(bearer string) (Caller, error) {
	if s.cfg.Auth == nil {
		return Anonymous, nil
	}
	if bearer == "" {
		if s.cfg.RequireAuth {
			return Caller{}, fmt.Errorf("%w: missing bearer token", auth.ErrInvalidToken)
		}
		return Anonymous, nil
	}
	tok, err := s.cfg.Auth.Authorize(bearer, s.cfg.RunScope)
	if err != nil {
		return Caller{}, err
	}
	return Caller{
		IdentityID: tok.IdentityID,
		Principals: s.cfg.Auth.Principals(tok.IdentityID),
		Tenant:     s.tenants.TenantOf(tok.IdentityID),
	}, nil
}

// --- repository --------------------------------------------------------------

// Publish validates, versions, indexes and builds a servable package
// (§IV-A "Servables"). It returns the assigned servable ID. ctx bounds
// the container build. The service keeps pkg.Doc: it is stamped here
// (ID, owner, version, time) and never written again.
func (s *Service) Publish(ctx context.Context, caller Caller, pkg *servable.Package) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", wrapCtxErr(err)
	}
	doc := pkg.Doc
	if err := schema.Validate(doc); err != nil {
		return "", err
	}
	owner := caller.IdentityID
	short := ownerShort(owner)
	id := short + "/" + doc.Publication.Name

	doc.ID = id
	doc.Owner = owner
	doc.PublishedAt = s.timeFunc()
	if len(doc.Publication.VisibleTo) == 0 {
		// Owner-only by default.
		doc.Publication.VisibleTo = []string{owner}
	}
	// Versioned, installed and indexed in one apply: from there on the
	// servable resolves and is discoverable, or neither. Committed
	// before the build: a failed build leaves the version installed, and
	// recovery replays exactly what the repository held.
	rec := recPublish{Doc: doc, Components: pkg.Components}
	if err := s.commit(recKindPublish, func() (any, error) {
		doc.Version = s.repo.nextVersion(id)
		return rec, nil
	}, func() { s.applyPublish(rec) }); err != nil {
		return "", err
	}

	// Build the servable container and store it in the registry
	// (pipelines are virtual — they have no container of their own).
	if doc.Servable.Type != schema.TypePipeline {
		if err := ctx.Err(); err != nil {
			return "", wrapCtxErr(err)
		}
		if _, err := buildImage(s.builder, pkg); err != nil {
			return "", fmt.Errorf("core: servable build failed: %w", err)
		}
	}

	// A new version obsoletes cached results (the version in the cache
	// key would miss anyway; dropping eagerly frees the space now).
	s.invalidateCache(id)
	return id, nil
}

func ownerShort(identityID string) string {
	// urn:identity:<provider>:<user> -> <user>; anything else verbatim.
	parts := strings.Split(identityID, ":")
	return parts[len(parts)-1]
}

// UpdateMetadata modifies a published servable's metadata (the CLI
// `update` command; also how CANDLE flips access control on release,
// §VI-A). Owner-only. update is applied to a copy of the publication
// block; an edit that does not validate is rejected and changes
// nothing, and a document obtained before an accepted edit still reads
// as it did.
func (s *Service) UpdateMetadata(caller Caller, id string, update func(*schema.Publication)) error {
	var rec recMetadata
	if err := s.commit(recKindMetadata, func() (any, error) {
		doc, err := s.repo.edited(id, caller.IdentityID, update)
		rec = recMetadata{ID: id, Doc: doc}
		return rec, err
	}, func() { s.applyMetadata(rec) }); err != nil {
		return err
	}
	// Metadata changes can alter who may see results (e.g. VisibleTo
	// flips); drop cached results rather than reason about which edits
	// are benign.
	s.invalidateCache(id)
	return nil
}

// Unpublish removes a servable from the repository entirely: every
// version, its package, search entry, cached results, placements,
// replica record and autoscale policy — and best-effort undeploys its
// replicas from every placed Task Manager, so serving capacity does not
// stay stranded on sites for a servable no API can reach anymore.
// Owner-only. In-flight work races naturally — a
// pipeline step resolved before the unpublish completes normally; one
// resolved after fails with ErrNotFound at its step boundary.
func (s *Service) Unpublish(caller Caller, id string) error {
	var placed []string
	rec := recServable{ID: id}
	if err := s.commit(recKindUnpublish, func() (any, error) {
		placed = s.route.placementsOf(id)
		return rec, s.repo.owned(id, caller.IdentityID, "unpublish")
	}, func() { s.applyUnpublish(rec) }); err != nil {
		return err
	}
	s.invalidateCache(id)
	// Undeploy is asynchronous and best-effort: the repository entry is
	// already gone, and a site that misses the task only leaks until
	// its own restart.
	for _, tmID := range placed {
		s.undeployAsync(id, tmID)
	}
	return nil
}

// Get returns a servable document, enforcing visibility.
func (s *Service) Get(caller Caller, id string) (*schema.Document, error) {
	doc, ok := s.repo.latest(id)
	if !ok || !visibleTo(doc, caller) { // a hidden document does not exist
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return doc, nil
}

// Versions lists all published versions of a servable.
func (s *Service) Versions(caller Caller, id string) ([]*schema.Document, error) {
	if _, err := s.Get(caller, id); err != nil {
		return nil, err
	}
	return s.repo.versionsOf(id), nil
}

func visibleTo(doc *schema.Document, caller Caller) bool {
	return doc.Owner == caller.IdentityID || search.Visible(doc.Publication.VisibleTo, caller.Principals)
}

// Search runs an ACL-filtered query over the repository (§IV-A "Model
// discovery"). The index is in-memory, so ctx only gates entry — it is
// part of the signature so the search path can move to a remote index
// without another API break. A canceled ctx is an error, never an
// empty result: "no servables" and "the request never ran" must stay
// distinguishable.
func (s *Service) Search(ctx context.Context, caller Caller, q search.Query) (search.Result, error) {
	if err := ctx.Err(); err != nil {
		return search.Result{}, wrapCtxErr(err)
	}
	q.Principals = caller.Principals
	return s.repo.search(q), nil
}

// shimEntrypoint is the entrypoint of the repository's own image: the
// DLHub shim, which an executor swaps for its serving process when it
// builds the image it deploys.
const shimEntrypoint = "dlhub-shim"

// buildImage builds the servable container exactly as §IV-A describes,
// from the one image recipe, under the repository's name for it.
func buildImage(b *container.Builder, pkg *servable.Package) (*container.Image, error) {
	spec, err := executor.ImageSpec(pkg, shimEntrypoint)
	if err != nil {
		return nil, err
	}
	spec.Name = "dlhub/" + strings.ReplaceAll(pkg.Doc.ID, "/", "-")
	return b.Build(spec)
}

// Dockerfile returns the rendered build recipe for a published
// servable — the provenance artifact shown in the repository UI.
func (s *Service) Dockerfile(caller Caller, id string) (string, error) {
	doc, err := s.Get(caller, id)
	if err != nil {
		return "", err
	}
	pkg := s.repo.pkg(id)
	if pkg == nil { // unpublished since the Get
		pkg = &servable.Package{Doc: doc}
	}
	spec, err := executor.ImageSpec(pkg, shimEntrypoint)
	if err != nil {
		return "", err
	}
	spec.Base = "python:3.7"
	return spec.Dockerfile(), nil
}

// --- serving -----------------------------------------------------------------

// RunOptions modifies task dispatch.
type RunOptions struct {
	// Executor routes to a specific serving system ("" = deployed
	// default).
	Executor string
	// NoMemo disables every memoization tier for this request — the
	// service-layer result cache and the TM cache (§V-B experiments
	// "disable DLHub memoization mechanisms").
	NoMemo bool
	// NoCache bypasses only the service-layer result cache, still
	// allowing TM-side memoization. Use it to force a request through
	// routing without forgoing site-local caching.
	NoCache bool
}

// reqCtx applies the request deadline policy: an inherited ctx deadline
// is respected, and a deadline-free ctx gets the service default so no
// dispatch can wait unboundedly. The returned cancel must be called.
func (s *Service) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); !ok {
		return context.WithTimeout(ctx, s.cfg.TaskTimeout)
	}
	return context.WithCancel(ctx)
}

// A result's payload is bytes from the servable's host to the HTTP
// response, the mirror image of a request's input: encoded once at the
// host, embedded by the Task Manager, and here stored, chained into the
// next pipeline step and written to the client as it arrived, on a miss
// and on every hit (docs/ARCHITECTURE.md, "Result path").

// Reply is a Task Manager's reply as this service holds it: the reply
// frame's fields (taskmanager.DecodeReply), with the payload left as the
// bytes the reply carried (a batch's outputs as one JSON array).
type Reply struct {
	TaskID           string                 `json:"task_id"`
	OK               bool                   `json:"ok"`
	Error            string                 `json:"error,omitempty"`
	Output           json.RawMessage        `json:"output,omitempty"`
	Outputs          json.RawMessage        `json:"outputs,omitempty"`
	InferenceMicros  int64                  `json:"inference_us,omitempty"`
	InvocationMicros int64                  `json:"invocation_us,omitempty"`
	Cached           bool                   `json:"cached,omitempty"`
	Steps            []taskmanager.StepStat `json:"steps,omitempty"`
}

// RunResult augments the TM reply with the MS-side request time (§V-A:
// "Request time is captured at the Management Service and measures the
// time from receipt of the task request to receipt of its result").
type RunResult struct {
	Reply
	RequestMicros int64 `json:"request_us"`
	// CacheHit reports the result was served from the service-layer
	// cache (or shared with an identical in-flight request) without
	// dispatching a task. Reply.Cached additionally covers TM-side
	// memoization hits. On a hit, Output/Outputs alias the stored cache
	// entry: in-process callers must treat them as read-only.
	CacheHit bool `json:"cache_hit,omitempty"`
	// cacheSkipped marks a result whose execution path never consulted
	// the service-layer cache even though the request options allowed
	// it (monolith pipelines, pipeline batches) — the X-DLHub-Cache
	// header reports these as "bypass", not "miss".
	cacheSkipped bool
}

// markCacheHit stamps a result served without dispatching: hit flags
// set and the request time re-measured for this caller. The payload, the
// task ID and the executor-side timings stay the stored result's.
func markCacheHit(res RunResult, start time.Time) RunResult {
	res.CacheHit = true
	res.Cached = true
	res.RequestMicros = time.Since(start).Microseconds()
	return res
}

// cacheUsable reports whether the service-layer cache applies to a
// request with the given options. Executor-pinned runs share entries
// with default-routed ones: a result is the model's output, independent
// of which serving system computed it.
func (s *Service) cacheUsable(opts RunOptions) bool {
	return s.cache != nil && !opts.NoCache && !opts.NoMemo
}

// CacheEnabled reports whether the service-layer result cache is on.
func (s *Service) CacheEnabled() bool { return s.cache != nil }

// CacheStats snapshots the service-layer cache counters (zero when the
// cache is disabled).
func (s *Service) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.stats()
}

// FlushCache drops every cached result (counters are kept).
func (s *Service) FlushCache() {
	if s.cache != nil {
		s.cache.flush()
	}
}

// invalidateCache drops all cached results for one servable.
func (s *Service) invalidateCache(servableID string) {
	if s.cache != nil {
		s.cache.invalidate(servableID)
	}
}

// serve is the tail every synchronous run ends in — single runs,
// batches and pipeline steps alike — after the caller's ACL check: the
// cache lookup, and only on a miss the deadline, singleflight, admission
// by weight and dispatch (serveMiss). A hit costs the lookup and nothing
// else: it adds no load, so it is not admitted, and task arrives without
// its ID and a single run's without its input (each an object only a
// dispatch needs). The zero key means the cache does not apply (disabled,
// opted out, or a pipeline batch).
func (s *Service) serve(ctx context.Context, caller Caller, key cacheKey, task taskmanager.Task, input json.RawMessage, weight int) (RunResult, error) {
	start := time.Now()
	var call *flight
	lead := false
	if key != (cacheKey{}) {
		var res RunResult
		if res, call, lead = s.cache.lookup(key, task.Servable); call == nil {
			return markCacheHit(res, start), nil
		}
	}
	if input != nil {
		task.Input = input
	}
	return s.serveMiss(ctx, caller, call, lead, task, weight, start)
}

// serveMiss dispatches under the request deadline. A request that leads
// its key's call dispatches for every identical request that follows it
// (lead); a follower waits under its own ctx, never the leader's, and
// shares the leader's result, marked CacheHit with its own request time.
// A follower whose leader was canceled — the leader's client hung up —
// claims the key again: it follows a newer call or leads and
// re-dispatches, so a canceled leader never takes its followers down
// with it. A timed-out leader's error is shared: re-dispatching a
// known-too-slow task for every follower would stampede the TM. call is
// nil when the cache does not apply. A led call is finished on every
// return path, and as internal, unstored, if the dispatch panics.
func (s *Service) serveMiss(ctx context.Context, caller Caller, call *flight, lead bool, task taskmanager.Task, weight int, start time.Time) (RunResult, error) {
	ctx, cancel := s.reqCtx(ctx)
	defer cancel()
	if call != nil && !lead {
		var err error
		call, lead, err = s.cache.flights.follow(ctx, call, func(c *flight) bool {
			return errors.Is(c.err, context.Canceled) && ctx.Err() == nil
		})
		switch {
		case err != nil:
			return RunResult{}, fmt.Errorf("%w (awaiting identical in-flight request)", wrapCtxErr(err))
		case lead:
		case call.err != nil:
			return call.val, call.err
		default:
			s.cache.collapsed.Inc()
			return markCacheHit(call.val, start), nil
		}
	}
	if call == nil {
		return s.admitAndDispatch(ctx, caller, task, weight)
	}
	defer s.cache.flights.abandon(call)
	res, err := s.admitAndDispatch(ctx, caller, task, weight)
	s.cache.finish(call, res, err)
	return res, err
}

// admitAndDispatch reserves weight admission units under the task's
// servable for the length of the dispatch. A batch reserves its input
// count: admitting a 250-item batch as one unit would let a single
// request blow far past the bound. Of a cache call, only the leader gets
// here: followers add no load, and a leader's rejection is the overload
// answer for the whole flight. The leader's tenant is billed — followers
// on the same key share its reservation like they share its dispatch.
func (s *Service) admitAndDispatch(ctx context.Context, caller Caller, task taskmanager.Task, weight int) (RunResult, error) {
	if err := s.admitRun(caller, task.Servable, weight); err != nil {
		return RunResult{}, err
	}
	defer s.route.unreserve(caller.Tenant, task.Servable, weight)
	task.ID = queue.NewID()
	return s.dispatch(ctx, task)
}

// The serving entry points come in pairs. The exported methods take Go
// values for in-process callers, marshal them once at the door and call
// their lower-case twin; the HTTP handler calls the twin with the bytes
// the client sent. From there a payload is json.RawMessage and nothing
// in this package decodes it: the cache key is computed over the bytes,
// the same bytes ride the task, and the servable does the one decode.

// encodeInput is the in-process door's one marshal.
func encodeInput(input any) (json.RawMessage, error) {
	raw, err := json.Marshal(input)
	if err != nil {
		return nil, ErrBadRequest.WithDetail("unencodable input: " + err.Error())
	}
	return raw, nil
}

// Run synchronously invokes a servable with one input. Cancelling ctx
// aborts the dispatch, frees the routed TM's load slot, and returns an
// error matching both context.Canceled and ErrCanceled.
func (s *Service) Run(ctx context.Context, caller Caller, servableID string, input any, opts RunOptions) (RunResult, error) {
	raw, err := encodeInput(input)
	if err != nil {
		return RunResult{}, err
	}
	return s.run(ctx, caller, servableID, raw, opts)
}

func (s *Service) run(ctx context.Context, caller Caller, servableID string, input json.RawMessage, opts RunOptions) (RunResult, error) {
	doc, err := s.Get(caller, servableID)
	if err != nil {
		return RunResult{}, err
	}
	if doc.Servable.Type == schema.TypePipeline {
		// Pipelines have no pipeline-LEVEL cache entry (step servables
		// version independently, so one key cannot see staleness in an
		// updated step); the engine caches per step instead — see
		// pipeline.go for the execution and cache-key contract. One
		// deadline covers the whole chain.
		ctx, cancel := s.reqCtx(ctx)
		defer cancel()
		return s.runPipeline(ctx, caller, doc, input, opts)
	}
	return s.runOne(ctx, caller, servableID, doc.Version, input, opts)
}

// runOne serves one input on one non-pipeline servable — a plain run or
// a pipeline step, which is nothing else: result cache + singleflight
// when usable (one key space for both), admission under the servable's
// own ID, placement-aware least-loaded routing. Caller has resolved the
// servable's visibility and version.
func (s *Service) runOne(ctx context.Context, caller Caller, servableID string, version int, input json.RawMessage, opts RunOptions) (RunResult, error) {
	task := taskmanager.Task{
		Kind:     "run",
		Servable: servableID,
		Executor: opts.Executor,
		NoMemo:   opts.NoMemo,
		Tenant:   caller.Tenant,
	}
	var key cacheKey
	if s.cacheUsable(opts) {
		key, _ = resultKey(servableID, version, input) // no canonical form, no key: runs uncached
	}
	return s.serve(ctx, caller, key, task, input, 1)
}

// RunBatch synchronously invokes a servable on many inputs in one task
// (§V-B3 batching). The whole input slice is one cache unit: repeating
// an identical batch hits, but its items do not cross-populate
// single-input entries.
func (s *Service) RunBatch(ctx context.Context, caller Caller, servableID string, inputs []any, opts RunOptions) (RunResult, error) {
	raws := make([]json.RawMessage, len(inputs))
	for i, in := range inputs {
		raw, err := encodeInput(in)
		if err != nil {
			return RunResult{}, err
		}
		raws[i] = raw
	}
	return s.runBatch(ctx, caller, servableID, raws, opts)
}

func (s *Service) runBatch(ctx context.Context, caller Caller, servableID string, inputs []json.RawMessage, opts RunOptions) (RunResult, error) {
	if len(inputs) == 0 {
		// One answer at both doors; there is no empty task to dispatch.
		return RunResult{}, ErrBadRequest.WithDetail("inputs is empty")
	}
	doc, err := s.Get(caller, servableID)
	if err != nil {
		return RunResult{}, err
	}
	task := taskmanager.Task{
		Kind:     "run_batch",
		Servable: servableID,
		Executor: opts.Executor,
		Inputs:   inputs,
		NoMemo:   opts.NoMemo,
		Tenant:   caller.Tenant,
	}
	// Pipelines are uncacheable here for the same reason as in Run:
	// step servables version independently of the pipeline document.
	pipeline := doc.Servable.Type == schema.TypePipeline
	var key cacheKey
	if s.cacheUsable(opts) && !pipeline {
		key, _ = batchKey(servableID, doc.Version, inputs)
	}
	res, err := s.serve(ctx, caller, key, task, nil, len(inputs))
	res.cacheSkipped = pipeline
	return res, err
}

// dispatch routes a task via route.pick and waits for the reply, bounded by
// ctx. Synchronous serving dispatches (plain runs and batch runs —
// including pipeline steps, which dispatch as plain runs) are
// failover-protected: when the routed TM misses its liveness window
// mid-wait (dispatchTo's errTMLost), the task is re-dispatched to
// another routable TM up to the failover retry budget
// instead of letting the caller eat ErrTimeout. These tasks are
// idempotent by construction — pure inference with no site-side state —
// so a re-dispatch after an uncertain first execution is safe; control
// plane kinds (deploy/scale/undeploy) mutate site state and target
// specific sites, so they fast-fail on a lost TM rather than re-route.
func (s *Service) dispatch(ctx context.Context, task taskmanager.Task) (RunResult, error) {
	eligible := task.Kind == "run" || task.Kind == "run_batch"
	// A lost TM is excluded from the re-pick so routing cannot hand the
	// request straight back to the dead site while its last heartbeat
	// still looks fresh.
	var excluded []string
	for {
		tmID, err := s.route.pick(task.Servable, excluded)
		if err != nil {
			if len(excluded) > 0 {
				s.noteFailoverExhausted()
				err = fmt.Errorf("%w (after %d failover attempt(s))", err, len(excluded))
			}
			return RunResult{}, err
		}
		if len(excluded) > 0 {
			s.noteFailoverRedispatch()
		}
		res, err := s.dispatchTo(ctx, tmID, task)
		if err == nil || !eligible || !errors.Is(err, errTMLost) || ctx.Err() != nil {
			return res, err
		}
		s.noteTMLost(tmID)
		if len(excluded) >= s.failoverBudget() {
			s.noteFailoverExhausted()
			return res, err
		}
		excluded = append(excluded, tmID)
	}
}

// dispatchTo pushes a task to a specific TM queue and waits until the
// reply arrives or ctx ends — every dispatch there is, serving and
// control plane alike. It owns the in-flight accounting
// route.pick routes on: the count rises for the whole queue+execute+reply round
// trip, so slow or backed-up TMs naturally shed new work to idle ones.
// A canceled or timed-out dispatch also decrements — the count tracks
// requests this service is waiting on, not TM health, and must not leak
// when replies are lost; shedding a wedged-but-heartbeating TM
// permanently is the liveness filter's (TMStaleAfter) job, not load
// accounting's. A ctx with no deadline gets the service default so the
// wait is always bounded.
//
// The same accounting call registers the dispatch with the TM's record,
// which aborts it with errTMLost the moment the TM misses its liveness
// window (routing.go, charge) — the reply will never come, and failing
// fast is what gives dispatch() room to re-route inside the caller's
// deadline — and with ErrCanceled when the service closes. The wait
// itself costs nothing: one timer per TM covers every waiter.
func (s *Service) dispatchTo(ctx context.Context, tmID string, task taskmanager.Task) (RunResult, error) {
	body, err := taskmanager.EncodeTask(task) // never pooled: the TM's payloads alias it
	if err != nil {
		return RunResult{}, err
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.TaskTimeout)
		defer cancel()
	}
	// One cancel serves every early end of the wait; its cause tells them apart.
	caller := ctx
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// Demand accounting: servable-level counts cover only serving kinds
	// (run/run_batch/pipeline) so control-plane tasks (deploy, scale —
	// notably the autoscaler's own scale-ups under load) never trip
	// admission control or inflate the demand signal. A batch weighs
	// its input count: N inputs are N units of work for the replicas,
	// not 1, and the autoscaler's signal must say so. Demand is charged
	// to the task's OWN servable: a monolith pipeline carries its
	// published pipeline ID and distributed steps dispatch as plain
	// runs under their step ID — never the old Steps[0] fallback, which
	// billed whole pipelines to whatever servable happened to come
	// first.
	sv, svWeight := "", 0
	switch task.Kind {
	case "run", "run_batch", "pipeline":
		sv = task.Servable
		svWeight = 1
		if task.Kind == "run_batch" && len(task.Inputs) > 1 {
			svWeight = len(task.Inputs)
		}
	}
	ref := s.route.charge(tmID, sv, svWeight, cancel)
	defer s.route.discharge(ref)
	if !queue.FitsRequest(ref.queue, task.Tenant, body) { // the door admits a frame; a task adds its envelope
		return RunResult{}, ErrTooLarge.WithDetail(fmt.Sprintf("task of %d bytes does not fit the queue's frame", len(body)))
	}
	start := time.Now()
	replyBody, err := s.broker.RequestCtx(ctx, ref.queue, body, task.Tenant)
	if err != nil {
		if context.Cause(ctx) == errTMLost && caller.Err() == nil {
			return RunResult{}, fmt.Errorf("%w: %s: %w", ErrNoTaskManager, tmID, errTMLost)
		}
		return RunResult{}, wrapCtxErr(err)
	}
	// The output aliases the reply body, which is this dispatch's own. A
	// reply that is not one to this task is the site's fault, never the client's.
	rep, err := taskmanager.DecodeReply(replyBody)
	if err == nil && string(rep.TaskID) != task.ID {
		err = fmt.Errorf("reply names task %q", rep.TaskID)
	}
	if err != nil {
		return RunResult{}, fmt.Errorf("%w: bad reply from task manager %s: %v", ErrUpstream, tmID, err)
	}
	res := RunResult{Reply: Reply{
		TaskID: task.ID, OK: rep.OK, Error: string(rep.Error), Output: rep.Output, Outputs: rep.Outputs, Cached: rep.Cached,
		InferenceMicros: rep.InferenceMicros, InvocationMicros: rep.InvocationMicros, Steps: rep.Steps,
	}, RequestMicros: time.Since(start).Microseconds()}
	if !res.OK {
		return res, fmt.Errorf("%w: %s", ErrTaskFailed, res.Error)
	}
	return res, nil
}

// runAsync starts an asynchronous invocation and returns its task UUID.
// ctx gates only the submission (visibility check): the spawned task is
// detached from the CALLER's cancellation, because the paper's async
// contract is exactly that the client may go away and poll (or stream)
// the result later — but not from the SERVICE's: the detached run is
// re-parented onto the service lifetime context, so Close fails
// still-pending async tasks with ErrCanceled instead of leaving their
// goroutines dispatching into a closed broker.
func (s *Service) runAsync(ctx context.Context, caller Caller, servableID string, input json.RawMessage, opts RunOptions) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", wrapCtxErr(err)
	}
	if _, err := s.Get(caller, servableID); err != nil {
		return "", err
	}
	id := queue.NewID()
	at := AsyncTask{ID: id, Status: "pending", Tenant: caller.Tenant, Created: s.timeFunc()}
	e, _ := s.tasks.lead(id, "", at)

	// The detached context keeps ctx's values but not its cancellation;
	// Run applies the usual deadline policy.
	// Service.Close cancels it through the lifetime context.
	bg, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := context.AfterFunc(s.lifeCtx, cancel)
	go func() {
		defer stop()
		defer cancel()
		res, err := s.run(bg, caller, servableID, input, opts)
		at.Finished = s.timeFunc()
		if err != nil {
			at.Status = "failed"
			at.Error = err.Error()
		} else {
			at.Status = "completed"
			at.Reply = &res.Reply
		}
		s.tasks.finish(e, at, nil, true, 0)
	}()
	return id, nil
}

// TaskStats reports the async-task table's size and how many finished
// tasks have expired out of it.
type TaskStats struct {
	// Tracked is the current task-table size (pending + finished
	// entries still within retention).
	Tracked int `json:"tracked"`
	// Swept counts finished tasks deleted once their retention ran out.
	Swept uint64 `json:"swept"`
}

// TaskStats snapshots the async-task counters, deleting the finished
// tasks whose retention has run out first.
func (s *Service) TaskStats() TaskStats {
	st := s.tasks.stats()
	return TaskStats{Tracked: st.entries, Swept: st.expirations}
}

// TaskStatus fetches an async task's state.
func (s *Service) TaskStatus(taskID string) (*AsyncTask, error) {
	at, _, ok := s.tasks.get(taskID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTaskNotFound, taskID)
	}
	return &at, nil
}

// TaskWatch returns a channel closed when the task completes (already
// closed for finished tasks), for event streams that must not poll.
func (s *Service) TaskWatch(taskID string) (<-chan struct{}, error) {
	_, done, ok := s.tasks.get(taskID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTaskNotFound, taskID)
	}
	return done, nil
}

// --- deployment --------------------------------------------------------------

// Deploy ships a published servable package to a Task Manager and
// starts replicas on the named executor route. A deadline-free ctx gets
// the 5-minute deployment budget (container shipping dominates). The
// target site is chosen by route.pick, so re-deploys land where the
// servable already lives; DeployTo pins one explicitly.
func (s *Service) Deploy(ctx context.Context, caller Caller, servableID string, replicas int, executorRoute string) error {
	return s.DeployTo(ctx, caller, servableID, replicas, executorRoute, "")
}

// DeployTo is Deploy pinned to a specific registered Task Manager —
// how operators place pipeline steps on disjoint sites (and how tests
// make multi-TM placement deterministic instead of riding routing
// tie-breaks). An empty tmID falls back to Deploy's default routing,
// so the HTTP handlers can pass the request's optional "tm" field
// through unconditionally.
func (s *Service) DeployTo(ctx context.Context, caller Caller, servableID string, replicas int, executorRoute, tmID string) error {
	if replicas < 0 {
		return ErrBadRequest.WithDetail(fmt.Sprintf("replicas must not be negative (got %d)", replicas))
	}
	ctx, cancel := deployCtx(ctx)
	defer cancel()
	if _, err := s.Get(caller, servableID); err != nil {
		return err
	}
	pkg := s.repo.pkg(servableID)
	if pkg == nil {
		return fmt.Errorf("%w: package for %s", ErrNotFound, servableID)
	}
	if tmID == "" {
		var err error
		if tmID, err = s.route.pick(servableID, nil); err != nil {
			return err
		}
	} else if err := s.registeredTM(tmID); err != nil {
		return err
	} else if _, _, _, draining := s.route.state(tmID); draining {
		return fmt.Errorf("%w: task manager %s is draining", ErrConflict, tmID)
	}
	return s.deployOn(ctx, servableID, pkg, tmID, replicas, executorRoute)
}

// deployOn is the one deploy path (Deploy/DeployTo and drain migration):
// ship pkg to tmID, start replicas there, and commit the placement. At
// least one replica is recorded whatever the task asked for.
func (s *Service) deployOn(ctx context.Context, servableID string, pkg *servable.Package, tmID string, replicas int, executorRoute string) error {
	wire, err := taskmanager.EncodePackage(pkg)
	if err != nil {
		return err
	}
	task := taskmanager.Task{
		ID:       queue.NewID(),
		Kind:     "deploy",
		Servable: servableID,
		Executor: executorRoute,
		Replicas: replicas,
		Package:  wire,
	}
	if _, err := s.dispatchTo(ctx, tmID, task); err != nil {
		return err
	}
	// The placement is recorded only while the servable is still
	// published and the target still routable: a deploy whose task was
	// in flight when an Unpublish won must not resurrect routing state
	// for a deleted servable, and one that lost the race to a DrainTM or
	// a deregistration must not re-grow placement on a site being
	// emptied. Refused (or not durable), the fresh replicas are torn
	// down instead.
	rec := recPlacement{ID: servableID, TM: tmID, Replicas: max(replicas, 1)}
	if err := s.commit(recKindDeploy, func() (any, error) {
		if _, ok := s.repo.latest(servableID); !ok {
			return nil, fmt.Errorf("%w: %s (unpublished during deploy)", ErrNotFound, servableID)
		}
		return rec, s.route.deployable(tmID)
	}, func() { s.applyDeploy(rec) }); err != nil {
		s.undeployAsync(servableID, tmID)
		return err
	}
	// The pods now run the latest version. A result cached since that
	// version was published came from the pods it replaced, stored under
	// the new version's key.
	s.invalidateCache(servableID)
	return nil
}

// undeployAsync best-effort removes a servable's replicas from one TM
// in the background (Unpublish, and deploys that lost the race to it).
// The lifetime ctx carries no deadline, so dispatchTo bounds the wait
// with the service TaskTimeout — a dead TM costs one timed-out
// goroutine, not a leak.
func (s *Service) undeployAsync(servableID, tmID string) {
	go func() {
		task := taskmanager.Task{ID: queue.NewID(), Kind: "undeploy", Servable: servableID}
		if _, err := s.dispatchTo(s.lifeCtx, tmID, task); err != nil && s.lifeCtx.Err() == nil {
			log.Printf("core: undeploy %s from %s failed: %v", servableID, tmID, err)
		}
	}()
}

// DesiredReplicas reports the replica count last set by Deploy or Scale
// (0 when the servable was never deployed through this service).
func (s *Service) DesiredReplicas(servableID string) int {
	return s.route.replicasOf(servableID)
}

// deployCtx bounds a control-plane task (deploy, scale, undeploy,
// drain, rejoin): the caller's deadline when the ctx carries one, else
// 5 minutes. The returned cancel must be called.
func deployCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, 5*time.Minute)
}

// ResolveComponents downloads globus:// component references through
// the transfer service, acting on the caller's behalf via a dependent
// token when auth is configured (§IV-A upload flow + §IV-D seamless
// transfer). bearer is the caller's raw Authorization header value.
func (s *Service) ResolveComponents(bearer string, refs map[string]string) (map[string][]byte, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	if s.cfg.Transfer == nil {
		return nil, errors.New("core: publish-by-reference requires a transfer service")
	}
	token := strings.TrimPrefix(bearer, "Bearer ")
	if s.cfg.Auth != nil && token != "" && s.cfg.TransferClientID != "" {
		dep, err := s.cfg.Auth.DependentToken(token, s.cfg.TransferClientID, s.cfg.TransferScope)
		if err != nil {
			return nil, fmt.Errorf("core: dependent token: %w", err)
		}
		token = dep.Value
	}
	out := make(map[string][]byte, len(refs))
	for name, uri := range refs {
		ref, err := transfer.ParseReference(uri)
		if err != nil {
			return nil, fmt.Errorf("core: component %s: %w", name, err)
		}
		data, err := s.cfg.Transfer.Fetch(token, ref.Endpoint, ref.Path)
		if err != nil {
			return nil, fmt.Errorf("core: component %s: %w", name, err)
		}
		out[name] = data
	}
	return out, nil
}

// Scale adjusts replica count on the deployed executor.
func (s *Service) Scale(ctx context.Context, caller Caller, servableID string, replicas int, executorRoute string) error {
	if _, err := s.Get(caller, servableID); err != nil {
		return err
	}
	return s.scaleReplicas(ctx, servableID, replicas, executorRoute)
}

// scaleReplicas is Scale after the ACL check — the shared core the
// autoscaler drives directly (its decisions are service-internal, not
// made on behalf of any caller).
func (s *Service) scaleReplicas(ctx context.Context, servableID string, replicas int, executorRoute string) error {
	if replicas < 0 {
		return ErrBadRequest.WithDetail(fmt.Sprintf("replicas must not be negative (got %d)", replicas))
	}
	ctx, cancel := deployCtx(ctx)
	defer cancel()
	task := taskmanager.Task{
		ID:       queue.NewID(),
		Kind:     "scale",
		Servable: servableID,
		Executor: executorRoute,
		Replicas: replicas,
	}
	if _, err := s.dispatch(ctx, task); err != nil {
		return err
	}
	// A Scale that raced an Unpublish records nothing: the replicas map
	// must not regrow an entry for a deleted servable.
	rec := recPlacement{ID: servableID, Replicas: replicas}
	if err := s.commit(recKindScale, func() (any, error) {
		if _, ok := s.repo.latest(servableID); !ok {
			return nil, nil
		}
		return rec, nil
	}, func() { s.applyScale(rec) }); err != nil {
		return err
	}
	// Replica churn restarts servable processes; drop cached results so
	// post-scale traffic re-exercises the fresh deployment.
	s.invalidateCache(servableID)
	return nil
}
