// Package dlhub is the public SDK for this DLHub reproduction — the Go
// analogue of the paper's Python SDK (§IV-E): "The DLHub Python SDK
// supports programmatic interactions with DLHub. The SDK wraps DLHub's
// REST API, providing access to all model repository and serving
// functionality." It also includes the metadata toolbox ("programmatic
// construction of JSON documents that specify publication and
// model-specific metadata") and a local runner for model development
// and testing.
//
// The client speaks the versioned /api/v2 surface: enveloped responses,
// typed *APIError errors, cursor pagination, idempotency keys, and SSE
// task streaming. Every network method takes a context first — cancel
// it and the server aborts the dispatch and frees its routing slot; its
// deadline is the request's timeout.
package dlhub

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/taskmanager"
)

// Client talks to a Management Service over its REST API (v2 surface).
type Client struct {
	// BaseURL of the Management Service, e.g. "http://localhost:8080".
	BaseURL string
	// Token is an optional bearer token from Globus Auth.
	Token string
	// HTTPClient may be replaced (tests, custom transports).
	HTTPClient *http.Client
	// Retry tunes the backoff policy for retryable requests (zero
	// value: defaults).
	Retry RetryPolicy
}

// RetryPolicy bounds the client's automatic retries. Only requests
// that are safe to repeat are retried: GETs (idempotent by contract)
// and POSTs carrying an Idempotency-Key (made idempotent by the
// server). Delays grow exponentially from BaseDelay with full jitter,
// capped at MaxDelay.
type RetryPolicy struct {
	// MaxAttempts counts total tries (default 3; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff sleep (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before attempt (1-based: attempt 1 is the
// first retry), exponential with full jitter.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// APIError is a typed v2 API failure: the machine-readable Code from
// the error envelope plus the HTTP status it arrived with.
type APIError struct {
	Status    int
	Code      string
	Message   string
	Detail    string
	RequestID string
}

func (e *APIError) Error() string {
	msg := e.Message
	if e.Detail != "" && !strings.Contains(msg, e.Detail) {
		msg += ": " + e.Detail
	}
	return fmt.Sprintf("dlhub: %s (http %d, code %s)", msg, e.Status, e.Code)
}

// NewClient creates a client for the given Management Service.
func NewClient(baseURL, token string) *Client {
	return &Client{
		BaseURL:    baseURL,
		Token:      token,
		HTTPClient: &http.Client{Timeout: 5 * time.Minute},
	}
}

// RunResult is a synchronous invocation response.
type RunResult struct {
	Output  any   `json:"output"`
	Outputs []any `json:"outputs,omitempty"`
	Cached  bool  `json:"cached,omitempty"`
	// CacheHit reports the Management Service answered from its
	// service-layer result cache without dispatching a task (the
	// response also carries an X-DLHub-Cache: hit|miss|bypass header).
	CacheHit bool `json:"cache_hit,omitempty"`
	// Timing decomposition (§V-A): inference at the servable,
	// invocation at the Task Manager, request at the Management
	// Service — all in microseconds.
	InferenceMicros  int64 `json:"inference_us"`
	InvocationMicros int64 `json:"invocation_us"`
	RequestMicros    int64 `json:"request_us"`
	// Steps decomposes a pipeline run per step, in execution order. A
	// step with RequestMicros > 0 was orchestrated by the Management
	// Service (distributed across Task Managers, possibly answered from
	// the result cache — see CacheHit); one without ran inside a
	// TM-local monolith dispatch.
	Steps []StepTiming `json:"steps,omitempty"`
}

// StepTiming is one pipeline step's timing and cache record — an alias
// of the wire type so client and server cannot drift.
type StepTiming = taskmanager.StepStat

// CacheStats mirrors the Management Service's result-cache counters.
type CacheStats = core.CacheStats

// TaskStatus is an asynchronous task's state.
type TaskStatus struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Error  string     `json:"error,omitempty"`
	Reply  *RunResult `json:"reply,omitempty"`
}

// Done reports whether the task reached a terminal state.
func (t *TaskStatus) Done() bool { return t.Status != "pending" }

// RunConfig refines an invocation issued through RunWith.
type RunConfig struct {
	// Executor pins a serving system ("" = deployed default).
	Executor string
	// NoMemo disables every memoization tier for this request.
	NoMemo bool
	// NoCache bypasses only the service-layer result cache.
	NoCache bool
	// IdempotencyKey makes the request safe to retry: the server
	// executes it once and replays the stored response to duplicates.
	// Setting it also enables the client's automatic retry policy for
	// this request.
	IdempotencyKey string
}

// --- repository -------------------------------------------------------------

// Publish uploads a model document plus components, returning the
// assigned servable ID ("<owner>/<name>").
func (c *Client) Publish(ctx context.Context, doc *schema.Document, components map[string][]byte) (string, error) {
	return c.publish(ctx, core.PublishRequest{Document: mustJSON(doc), Components: components}, "")
}

// PublishIdempotent publishes under an idempotency key: a retried call
// with the same key returns the first publication's ID instead of
// minting a new version.
func (c *Client) PublishIdempotent(ctx context.Context, doc *schema.Document, components map[string][]byte, key string) (string, error) {
	return c.publish(ctx, core.PublishRequest{Document: mustJSON(doc), Components: components}, key)
}

func (c *Client) publish(ctx context.Context, req core.PublishRequest, idemKey string) (string, error) {
	var resp map[string]string
	if err := c.call(ctx, http.MethodPost, "/api/v2/servables", req, &resp, idemKey); err != nil {
		return "", err
	}
	return resp["id"], nil
}

// PublishPackage publishes a servable.Package.
func (c *Client) PublishPackage(ctx context.Context, pkg *Package) (string, error) {
	return c.Publish(ctx, pkg.Doc, pkg.Components)
}

// PublishByReference publishes a model whose components live on Globus
// endpoints ("globus://endpoint/path"); the Management Service
// downloads them on the caller's behalf (§IV-A).
func (c *Client) PublishByReference(ctx context.Context, doc *schema.Document, refs map[string]string) (string, error) {
	return c.publish(ctx, core.PublishRequest{Document: mustJSON(doc), ComponentRefs: refs}, "")
}

// Get fetches a servable's metadata document.
func (c *Client) Get(ctx context.Context, id string) (*schema.Document, error) {
	var doc schema.Document
	if err := c.call(ctx, http.MethodGet, "/api/v2/servables/"+id, nil, &doc, ""); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Dockerfile fetches the rendered build recipe for a servable.
func (c *Client) Dockerfile(ctx context.Context, id string) (string, error) {
	var resp map[string]string
	if err := c.call(ctx, http.MethodGet, "/api/v2/servables/"+id+"/dockerfile", nil, &resp, ""); err != nil {
		return "", err
	}
	return resp["dockerfile"], nil
}

// Page is one cursor-paginated slice of a collection — an alias of the
// server's wire type so the two cannot drift.
type Page[T any] = core.Page[T]

// ListPage fetches one page of visible servable IDs; pass the previous
// page's NextCursor to resume ("" starts from the top).
func (c *Client) ListPage(ctx context.Context, limit int, cursor string) (*Page[string], error) {
	path := "/api/v2/servables"
	sep := "?"
	if limit > 0 {
		path += fmt.Sprintf("%slimit=%d", sep, limit)
		sep = "&"
	}
	if cursor != "" {
		path += sep + "cursor=" + cursor
	}
	var page Page[string]
	if err := c.call(ctx, http.MethodGet, path, nil, &page, ""); err != nil {
		return nil, err
	}
	return &page, nil
}

// List returns the IDs of all servables visible to the caller,
// following pagination cursors to exhaustion.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var ids []string
	cursor := ""
	for {
		page, err := c.ListPage(ctx, 0, cursor)
		if err != nil {
			return nil, err
		}
		ids = append(ids, page.Items...)
		if page.NextCursor == "" {
			return ids, nil
		}
		cursor = page.NextCursor
	}
}

// SearchOptions refine a search.
type SearchOptions struct {
	Terms            map[string]string
	Prefix           map[string]string
	YearMin, YearMax *float64
	Facets           []string
	Limit            int
	// Cursor resumes a previous search page.
	Cursor string
}

// SearchResult is a search response page.
type SearchResult struct {
	Total  int                       `json:"total"`
	IDs    []string                  `json:"ids"`
	Docs   []map[string]any          `json:"docs"`
	Facets map[string]map[string]int `json:"facets,omitempty"`
	// NextCursor resumes after this page ("" on the last page).
	NextCursor string `json:"next_cursor,omitempty"`
}

// Search runs a free-text + fielded query over the repository.
func (c *Client) Search(ctx context.Context, freeText string, opts SearchOptions) (*SearchResult, error) {
	req := core.SearchRequestV2{
		SearchRequest: core.SearchRequest{
			Q:       freeText,
			Terms:   opts.Terms,
			Prefix:  opts.Prefix,
			YearMin: opts.YearMin,
			YearMax: opts.YearMax,
			Facets:  opts.Facets,
			Limit:   opts.Limit,
		},
		Cursor: opts.Cursor,
	}
	var page core.SearchPageV2
	if err := c.call(ctx, http.MethodPost, "/api/v2/search", req, &page, ""); err != nil {
		return nil, err
	}
	res := &SearchResult{Total: page.Total, Facets: page.Facets, NextCursor: page.NextCursor}
	for _, hit := range page.Items {
		res.IDs = append(res.IDs, hit.ID)
		res.Docs = append(res.Docs, hit.Doc)
	}
	return res, nil
}

// --- serving ----------------------------------------------------------------

// runRequest is the encoding side of core.RunRequest: the same wire
// fields, with the payload as the caller's values where the server keeps
// the bytes it received.
type runRequest struct {
	Input    any    `json:"input,omitempty"`
	Inputs   []any  `json:"inputs,omitempty"`
	Async    bool   `json:"async,omitempty"`
	NoMemo   bool   `json:"no_memo,omitempty"`
	NoCache  bool   `json:"no_cache,omitempty"`
	Executor string `json:"executor,omitempty"`
}

// Run synchronously invokes a servable; cancelling ctx aborts the
// server-side dispatch and frees its routing slot.
func (c *Client) Run(ctx context.Context, id string, input any) (*RunResult, error) {
	return c.RunWith(ctx, id, input, RunConfig{})
}

// RunWith invokes a servable with explicit options.
func (c *Client) RunWith(ctx context.Context, id string, input any, cfg RunConfig) (*RunResult, error) {
	req := runRequest{
		Input:    input,
		NoMemo:   cfg.NoMemo,
		NoCache:  cfg.NoCache,
		Executor: cfg.Executor,
	}
	var resp RunResult
	if err := c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/run", req, &resp, cfg.IdempotencyKey); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RunIdempotent invokes a servable under an idempotency key, enabling
// safe automatic retries: duplicates of the same (caller, servable,
// key) execute once and share the stored response.
func (c *Client) RunIdempotent(ctx context.Context, id string, input any, key string) (*RunResult, error) {
	return c.RunWith(ctx, id, input, RunConfig{IdempotencyKey: key})
}

// RunBatch synchronously invokes a servable on many inputs at once
// (DLHub's batching support, §V-B3). An empty batch is an error here,
// before anything is sent: omitempty would drop the field and the
// server would see a single run on null.
func (c *Client) RunBatch(ctx context.Context, id string, inputs []any) (*RunResult, error) {
	if len(inputs) == 0 {
		return nil, errors.New("dlhub: RunBatch: inputs is empty")
	}
	var resp RunResult
	if err := c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/run", runRequest{Inputs: inputs}, &resp, ""); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RunAsync starts an asynchronous invocation, returning a task UUID for
// Status polling or StreamTask (§IV-A). ctx bounds the submission only
// — the spawned task is detached by design.
func (c *Client) RunAsync(ctx context.Context, id string, input any) (string, error) {
	return c.RunAsyncWith(ctx, id, input, RunConfig{})
}

// RunAsyncWith submits an asynchronous invocation with explicit
// options. With an IdempotencyKey, a retried submission returns the
// original task ID instead of spawning a second task.
func (c *Client) RunAsyncWith(ctx context.Context, id string, input any, cfg RunConfig) (string, error) {
	req := runRequest{
		Input:    input,
		Async:    true,
		NoMemo:   cfg.NoMemo,
		NoCache:  cfg.NoCache,
		Executor: cfg.Executor,
	}
	var resp map[string]string
	if err := c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/run", req, &resp, cfg.IdempotencyKey); err != nil {
		return "", err
	}
	return resp["task_id"], nil
}

// Status polls an asynchronous task.
func (c *Client) Status(ctx context.Context, taskID string) (*TaskStatus, error) {
	var resp TaskStatus
	if err := c.call(ctx, http.MethodGet, "/api/v2/tasks/"+taskID, nil, &resp, ""); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TaskEvent is one server-sent event from a task stream.
type TaskEvent struct {
	// Type is "status" (state snapshot) or "done" (terminal state).
	Type string
	Task TaskStatus
}

// StreamTask subscribes to a task's SSE stream and blocks until the
// task completes, ctx ends, or the stream fails. Each event is passed
// to onEvent (may be nil); the terminal state is returned. One request,
// no polling interval to tune.
func (c *Client) StreamTask(ctx context.Context, taskID string, onEvent func(TaskEvent)) (*TaskStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v2/tasks/"+taskID+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	c.addAuth(req)
	// The configured client's overall Timeout (5m default) would kill a
	// long-lived stream mid-read; stream with the same transport but no
	// whole-exchange timeout — ctx alone bounds the subscription.
	sc := *c.httpClient()
	sc.Timeout = 0
	resp, err := sc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeErrorBody(resp)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var event string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st TaskStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return nil, fmt.Errorf("dlhub: bad task event: %w", err)
			}
			if onEvent != nil {
				onEvent(TaskEvent{Type: event, Task: st})
			}
			if event == "done" {
				return &st, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("dlhub: task stream interrupted: %w", err)
	}
	return nil, fmt.Errorf("dlhub: task stream for %s ended before completion", taskID)
}

// WaitTask blocks until the task completes or ctx ends, preferring the
// SSE stream and falling back to polling when streaming is unavailable
// (e.g. a proxy that buffers event streams). When ctx ends during the
// poll fallback the last known state is returned beside ctx's error.
func (c *Client) WaitTask(ctx context.Context, taskID string) (*TaskStatus, error) {
	st, err := c.StreamTask(ctx, taskID, nil)
	if err == nil {
		return st, nil
	}
	var apiErr *APIError
	if ctx.Err() != nil || (errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound) {
		return nil, err
	}
	// Stream unavailable: degrade to polling.
	for {
		st, err := c.Status(ctx, taskID)
		if err != nil {
			return nil, err
		}
		if st.Done() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// --- deployment & operations ------------------------------------------------

// Deploy starts replicas of a published servable on an executor route
// ("" selects the default Parsl executor).
func (c *Client) Deploy(ctx context.Context, id string, replicas int, executorRoute string) error {
	return c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/deploy",
		core.DeployRequest{Replicas: replicas, Executor: executorRoute}, nil, "")
}

// DeployTo is Deploy pinned to a named registered Task Manager — how
// operators place pipeline steps on disjoint sites deterministically
// instead of riding routing tie-breaks.
func (c *Client) DeployTo(ctx context.Context, id string, replicas int, executorRoute, tmID string) error {
	return c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/deploy",
		core.DeployRequest{Replicas: replicas, Executor: executorRoute, TM: tmID}, nil, "")
}

// Scale adjusts the replica count of a deployed servable.
func (c *Client) Scale(ctx context.Context, id string, replicas int, executorRoute string) error {
	return c.call(ctx, http.MethodPost, "/api/v2/servables/"+id+"/scale",
		core.DeployRequest{Replicas: replicas, Executor: executorRoute}, nil, "")
}

// AutoscalePolicy configures server-side replica autoscaling for a
// servable — an alias of the service's wire type so the two cannot
// drift. Duration fields travel as int64 nanoseconds.
type AutoscalePolicy = core.AutoscalePolicy

// AutoscaleStatus is a servable's autoscaler state: the installed
// policy, current/desired replicas, smoothed demand, and scale-up/
// scale-down/rejection counters.
type AutoscaleStatus = core.AutoscaleStatus

// SetAutoscale installs (or, with Enabled false, disables) a servable's
// autoscale policy and returns the resulting controller state.
func (c *Client) SetAutoscale(ctx context.Context, id string, policy AutoscalePolicy) (*AutoscaleStatus, error) {
	var st AutoscaleStatus
	if err := c.call(ctx, http.MethodPut, "/api/v2/servables/"+id+"/autoscale", policy, &st, ""); err != nil {
		return nil, err
	}
	return &st, nil
}

// Autoscale reports a servable's autoscaler policy and state.
func (c *Client) Autoscale(ctx context.Context, id string) (*AutoscaleStatus, error) {
	var st AutoscaleStatus
	if err := c.call(ctx, http.MethodGet, "/api/v2/servables/"+id+"/autoscale", nil, &st, ""); err != nil {
		return nil, err
	}
	return &st, nil
}

// UpdateVisibility replaces the ACL principal list of a servable — how
// CANDLE models move from group-restricted to public (§VI-A).
func (c *Client) UpdateVisibility(ctx context.Context, id string, visibleTo []string) error {
	return c.call(ctx, http.MethodPatch, "/api/v2/servables/"+id,
		core.UpdateRequest{VisibleTo: visibleTo}, nil, "")
}

// UpdateDescription replaces a servable's description.
func (c *Client) UpdateDescription(ctx context.Context, id, description string) error {
	return c.call(ctx, http.MethodPatch, "/api/v2/servables/"+id,
		core.UpdateRequest{Description: &description}, nil, "")
}

// Unpublish removes a servable (every version) from the repository.
// Owner-only.
func (c *Client) Unpublish(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/api/v2/servables/"+id, nil, nil, "")
}

// Undeploy removes ONE placement of a servable: its replicas on the
// named Task Manager are torn down and routing stops sending requests
// there, without unpublishing the servable. Owner-only.
func (c *Client) Undeploy(ctx context.Context, id, tmID string) error {
	return c.call(ctx, http.MethodDelete, "/api/v2/servables/"+id+"/placements/"+tmID, nil, nil, "")
}

// Placements reports which Task Managers currently host a servable.
func (c *Client) Placements(ctx context.Context, id string) ([]string, error) {
	var resp struct {
		Placements []string `json:"placements"`
	}
	if err := c.call(ctx, http.MethodGet, "/api/v2/servables/"+id, nil, &resp, ""); err != nil {
		return nil, err
	}
	return resp.Placements, nil
}

// DrainResult reports what a drain migrated — an alias of the service
// type so client and server cannot drift.
type DrainResult = core.DrainResult

// DrainTM gracefully takes a Task Manager out of rotation: routing
// stops immediately, in-flight and queued tasks finish, and its
// placements are migrated onto the remaining Task Managers. Follow
// with DeregisterTM to remove it entirely.
func (c *Client) DrainTM(ctx context.Context, tmID string) (*DrainResult, error) {
	var res DrainResult
	if err := c.call(ctx, http.MethodPost, "/api/v2/tms/"+tmID+"/drain", struct{}{}, &res, ""); err != nil {
		return nil, err
	}
	return &res, nil
}

// RejoinTM reverses a drain: the Task Manager clears its drain
// acknowledgement and returns to the routable pool. Placements a drain
// migrated away are not restored — redeploy explicitly where needed.
func (c *Client) RejoinTM(ctx context.Context, tmID string) error {
	return c.call(ctx, http.MethodPost, "/api/v2/tms/"+tmID+"/rejoin", struct{}{}, nil, "")
}

// DeregisterTM removes a Task Manager from the service's registry and
// routing state (normally after DrainTM). A TM process that is still
// alive re-registers on its next heartbeat; stop it to make removal
// final.
func (c *Client) DeregisterTM(ctx context.Context, tmID string) error {
	return c.call(ctx, http.MethodDelete, "/api/v2/tms/"+tmID, nil, nil, "")
}

// CacheStats fetches the Management Service's result-cache counters;
// enabled reports whether the cache is on at all.
func (c *Client) CacheStats(ctx context.Context) (stats CacheStats, enabled bool, err error) {
	var resp struct {
		Enabled bool       `json:"enabled"`
		Stats   CacheStats `json:"stats"`
	}
	if err := c.call(ctx, http.MethodGet, "/api/v2/cache/stats", nil, &resp, ""); err != nil {
		return CacheStats{}, false, err
	}
	return resp.Stats, resp.Enabled, nil
}

// FlushCache drops every cached result at the Management Service.
func (c *Client) FlushCache(ctx context.Context) error {
	return c.call(ctx, http.MethodPost, "/api/v2/cache/flush", struct{}{}, nil, "")
}

// TaskManagerInfo is the operator view of the TM fleet.
type TaskManagerInfo struct {
	TaskManagers []string       `json:"task_managers"`
	Live         []string       `json:"live"`
	Draining     []string       `json:"draining"`
	Load         map[string]int `json:"load"`
	QueueDepth   map[string]int `json:"queue_depth"`
	Active       map[string]int `json:"active"`
}

// TaskManagerInfo fetches the full fleet view: registered, live and
// draining TMs plus the load/backlog signals routing uses.
func (c *Client) TaskManagerInfo(ctx context.Context) (*TaskManagerInfo, error) {
	var resp TaskManagerInfo
	if err := c.call(ctx, http.MethodGet, "/api/v2/tms", nil, &resp, ""); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TenantView is one tenant's quota/priority configuration — an alias of
// the service's wire type so client and server cannot drift.
type TenantView = core.TenantView

// TenantQuota is the quota spec installed by SetTenantQuota.
type TenantQuota = core.TenantQuotaRequest

// Tenants lists the tenants known to the Management Service with their
// quota and fairness configuration.
func (c *Client) Tenants(ctx context.Context) ([]TenantView, error) {
	var page Page[TenantView]
	if err := c.call(ctx, http.MethodGet, "/api/v2/tenants", nil, &page, ""); err != nil {
		return nil, err
	}
	return page.Items, nil
}

// SetTenantQuota installs (or replaces) a tenant's quota spec —
// max in-flight runs, sustained request rate, and priority class
// (high|normal|low, weighting its share of the fair dequeue). The
// tenant record is created if absent.
func (c *Client) SetTenantQuota(ctx context.Context, tenantID string, q TenantQuota) (*TenantView, error) {
	var view TenantView
	if err := c.call(ctx, http.MethodPut, "/api/v2/tenants/"+tenantID+"/quota", q, &view, ""); err != nil {
		return nil, err
	}
	return &view, nil
}

// --- authentication -----------------------------------------------------------

// LoginResult is a successful login: the bearer token plus its expiry
// and resolved identity — an alias of the server's wire type so the two
// cannot drift.
type LoginResult = core.LoginResult

// RegisterRequest describes a new account for Register — an alias of
// the server's wire type.
type RegisterRequest = core.RegisterRequest

// Identity is the caller's resolved view of itself, as reported by
// Whoami.
type Identity struct {
	IdentityID string   `json:"identity_id"`
	Tenant     string   `json:"tenant"`
	Principals []string `json:"principals"`
}

// WithToken returns a shallow copy of the client that authenticates
// with the given bearer token — the idiomatic follow-up to Login:
//
//	res, _ := c.Login(ctx, "", user, pass)
//	c = c.WithToken(res.AccessToken)
func (c *Client) WithToken(token string) *Client {
	cc := *c
	cc.Token = token
	return &cc
}

// Register creates a durable account on a server running with -auth
// (the account survives restarts; see docs/SECURITY.md) and returns
// the identity URN.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (string, error) {
	var resp map[string]string
	if err := c.call(ctx, http.MethodPost, "/api/v2/auth/register", req, &resp, ""); err != nil {
		return "", err
	}
	return resp["identity_id"], nil
}

// Login exchanges provider credentials for a bearer token ("" provider
// selects the server's default). The token is NOT stored on the
// client — chain with WithToken, or set Token yourself.
func (c *Client) Login(ctx context.Context, provider, username, password string) (*LoginResult, error) {
	req := core.LoginRequest{Provider: provider, Username: username, Password: password}
	var res LoginResult
	if err := c.call(ctx, http.MethodPost, "/api/v2/auth/login", req, &res, ""); err != nil {
		return nil, err
	}
	return &res, nil
}

// Revoke invalidates a token and everything derived from it. An empty
// token revokes the client's own bearer.
func (c *Client) Revoke(ctx context.Context, token string) error {
	if token == "" {
		token = c.Token
	}
	return c.call(ctx, http.MethodPost, "/api/v2/auth/revoke", core.RevokeRequest{Token: token}, nil, "")
}

// Whoami reports the identity and tenant the server resolves for this
// client's token — the end-to-end check that auth is wired up.
func (c *Client) Whoami(ctx context.Context) (*Identity, error) {
	var id Identity
	if err := c.call(ctx, http.MethodGet, "/api/v2/auth/whoami", nil, &id, ""); err != nil {
		return nil, err
	}
	return &id, nil
}

// Healthy reports liveness of the Management Service. Probes report
// the current state from a single request — no retries, so poll loops
// see state changes immediately.
func (c *Client) Healthy(ctx context.Context) error {
	return c.probe(ctx, "/api/v2/healthz")
}

// Ready reports whether the service can accept serving traffic (at
// least one live Task Manager registered). Like Healthy, it never
// retries: a 503 IS the answer ("not ready"), not a transient to
// back off from.
func (c *Client) Ready(ctx context.Context) error {
	return c.probe(ctx, "/api/v2/readyz")
}

func (c *Client) probe(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	c.addAuth(req)
	return c.doOnce(req, nil)
}
