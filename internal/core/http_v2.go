package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/rpc"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
)

// The REST API (§IV-E: "DLHub offers a REST API, Command Line Interface
// (CLI), and a Python Software Development Kit (SDK) for publishing,
// managing, and invoking models"): one generation, /api/v2. Every
// response is one envelope —
//
//	{"data": ..., "request_id": "..."}            on success
//	{"error": {"code", "message", "detail"},
//	 "request_id": "..."}                         on failure
//
// — with machine-readable error codes from errors.go, cursor pagination
// on list/search, idempotency keys on run and publish, and an SSE
// stream per task. docs/API.md is the reference.

// Envelope is the uniform v2 response wrapper.
type Envelope struct {
	Data      any            `json:"data,omitempty"`
	Error     *EnvelopeError `json:"error,omitempty"`
	RequestID string         `json:"request_id"`
}

// EnvelopeError is the wire form of a classified service error.
type EnvelopeError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// Handler returns the REST API behind the door (middleware.go: request
// IDs, optional access logs, per-route metrics, panic containment).
func (s *Service) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// routesV2 mounts the API; New calls it, once.
func (s *Service) routesV2(mux *door) {
	mux.HandleFunc("GET /api/v2/healthz", s.handleV2Healthz)
	mux.HandleFunc("GET /api/v2/readyz", s.handleV2Readyz)
	mux.HandleFunc("POST /api/v2/servables", s.handleV2Publish)
	mux.HandleFunc("GET /api/v2/servables", endpoint(s, s.handleV2List))
	mux.HandleFunc("GET /api/v2/servables/{owner}/{name}", endpoint(s, s.handleV2Get))
	mux.HandleFunc("GET /api/v2/servables/{owner}/{name}/versions", endpoint(s, s.handleV2Versions))
	mux.HandleFunc("GET /api/v2/servables/{owner}/{name}/dockerfile", endpoint(s, s.handleV2Dockerfile))
	mux.HandleFunc("PATCH /api/v2/servables/{owner}/{name}", endpoint(s, s.handleV2Update))
	mux.HandleFunc("DELETE /api/v2/servables/{owner}/{name}", endpoint(s, s.handleV2Unpublish))
	mux.HandleFunc("POST /api/v2/servables/{owner}/{name}/run", s.handleV2Run)
	mux.HandleFunc("POST /api/v2/servables/{owner}/{name}/deploy", endpoint(s, s.handleV2Deploy))
	mux.HandleFunc("DELETE /api/v2/servables/{owner}/{name}/placements/{tm}", endpoint(s, s.handleV2Undeploy))
	mux.HandleFunc("POST /api/v2/servables/{owner}/{name}/scale", endpoint(s, s.handleV2Scale))
	mux.HandleFunc("GET /api/v2/servables/{owner}/{name}/autoscale", endpoint(s, s.handleV2AutoscaleGet))
	mux.HandleFunc("PUT /api/v2/servables/{owner}/{name}/autoscale", endpoint(s, s.handleV2AutoscalePut))
	mux.HandleFunc("POST /api/v2/search", endpoint(s, s.handleV2Search))
	mux.HandleFunc("GET /api/v2/tasks/{task}", endpoint(s, s.handleV2Task))
	mux.HandleFunc("GET /api/v2/tasks/{task}/events", s.handleV2TaskEvents)
	mux.HandleFunc("GET /api/v2/tms", endpoint(s, s.handleV2TMs))
	mux.HandleFunc("POST /api/v2/tms/{tm}/drain", endpoint(s, s.handleV2TMDrain))
	mux.HandleFunc("POST /api/v2/tms/{tm}/rejoin", endpoint(s, s.handleV2TMRejoin))
	mux.HandleFunc("DELETE /api/v2/tms/{tm}", endpoint(s, s.handleV2TMDeregister))
	mux.HandleFunc("GET /api/v2/cache/stats", endpoint(s, s.handleV2CacheStats))
	mux.HandleFunc("POST /api/v2/cache/flush", endpoint(s, s.handleV2CacheFlush))
	mux.HandleFunc("GET /api/v2/stats", endpoint(s, s.handleV2Stats))
	mux.HandleFunc("GET /api/v2/tenants", endpoint(s, s.handleV2Tenants))
	mux.HandleFunc("PUT /api/v2/tenants/{tenant}/quota", endpoint(s, s.handleV2TenantQuota))
	s.routesV2Auth(mux)
}

// TenantHeader lets callers tag requests with a tenant when the server
// runs without an auth service (development, benchmarks). With auth
// enabled, tenancy follows the token's identity and a request carrying
// this header is rejected 401 outright — accepting (or silently
// ignoring) a caller-asserted tenant would make quota accounting
// spoofable, the hole this release closes.
const TenantHeader = "X-DLHub-Tenant"

// The headers every request touches, under the canonical key net/http
// stores them by — reading or assigning by it is a map operation, where
// Header.Get/Set with the documented spelling first allocates this form —
// and the values every response shares.
var (
	requestIDKey = http.CanonicalHeaderKey(RequestIDHeader)
	tenantKey    = http.CanonicalHeaderKey(TenantHeader)
	cacheHdrKey  = http.CanonicalHeaderKey(CacheHeader)

	cacheBypass, cacheHit, cacheMiss = []string{"bypass"}, []string{"hit"}, []string{"miss"}
	jsonContentType                  = []string{"application/json"}
)

// writeV2 writes a success envelope.
func writeV2(w http.ResponseWriter, status int, data any) {
	rpc.WriteJSON(w, status, Envelope{Data: data, RequestID: requestID(w)})
}

// writeV2Error classifies err and writes the error envelope. A client
// that hung up (canceled ctx) gets the 499 status for the logs even
// though no one reads the body.
func writeV2Error(w http.ResponseWriter, err error) {
	e := Classify(err)
	rpc.WriteJSON(w, e.HTTPStatus, Envelope{
		Error:     &EnvelopeError{Code: string(e.Code), Message: e.Message, Detail: e.Detail},
		RequestID: requestID(w),
	})
}

// envelopeOpen starts a success envelope: the data, one JSON value,
// follows it, and finishEnvelope closes it with the request ID (which
// needs no escaping: the door admits only [A-Za-z0-9._:-]) and writes it.
const envelopeOpen = `{"data":`

func finishEnvelope(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	buf.WriteString(`,"request_id":"`)
	buf.WriteString(requestID(w))
	buf.WriteString("\"}\n")
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck — client gone
}

// writeRunResult appends res as the JSON object encoding/json writes for
// it — same fields, same order, same omitempty — except that the payload
// is copied, not parsed: hit, miss, batch, pipeline and idempotent replay
// carry the host's bytes (FuzzRunEnvelope holds it to encoding/json).
func writeRunResult(b *bytes.Buffer, res *RunResult) {
	writeString(b, `{"task_id":`, res.TaskID, false)
	b.WriteString(`,"ok":`)
	b.WriteString(strconv.FormatBool(res.OK))
	writeString(b, `,"error":`, res.Error, true)
	if len(res.Output) > 0 {
		b.WriteString(`,"output":`)
		b.Write(res.Output)
	}
	if len(res.Outputs) > 0 {
		b.WriteString(`,"outputs":`)
		b.Write(res.Outputs)
	}
	writeInt(b, `,"inference_us":`, res.InferenceMicros, true)
	writeInt(b, `,"invocation_us":`, res.InvocationMicros, true)
	if res.Cached {
		b.WriteString(`,"cached":true`)
	}
	if len(res.Steps) > 0 { // pipelines only: a few small records, left to encoding/json
		steps, _ := json.Marshal(res.Steps)
		b.WriteString(`,"steps":`)
		b.Write(steps)
	}
	writeInt(b, `,"request_us":`, res.RequestMicros, false)
	if res.CacheHit {
		b.WriteString(`,"cache_hit":true`)
	}
	b.WriteByte('}')
}

func writeInt(b *bytes.Buffer, field string, v int64, omitZero bool) {
	if v != 0 || !omitZero {
		b.WriteString(field)
		b.Write(strconv.AppendInt(b.AvailableBuffer(), v, 10))
	}
}

// writeString appends field and s as a JSON string: plain ASCII — every
// ID this service mints — as it is, anything else as encoding/json does.
func writeString(b *bytes.Buffer, field, s string, omitEmpty bool) {
	if s == "" && omitEmpty {
		return
	}
	b.WriteString(field)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			enc, _ := json.Marshal(s) // a string always marshals
			b.Write(enc)
			return
		}
	}
	b.WriteByte('"')
	b.WriteString(s)
	b.WriteByte('"')
}

// callerV2 resolves the request identity, writing the enveloped 401 on
// failure. Without an auth service, the X-DLHub-Tenant header may tag
// the caller's tenant directly; with auth, tenancy is derived
// exclusively from the token's identity and a request that carries the
// header at all is rejected — see TenantHeader.
func (s *Service) callerV2(w http.ResponseWriter, r *http.Request) (Caller, bool) {
	if s.cfg.Auth != nil {
		if r.Header.Get(tenantKey) != "" {
			writeV2Error(w, ErrUnauthorized.WithDetail(
				TenantHeader+" is not accepted when authentication is enabled; tenancy follows the token identity"))
			return Caller{}, false
		}
	}
	c, err := s.ResolveCaller(r.Header.Get("Authorization"))
	if err != nil {
		writeV2Error(w, ErrUnauthorized.WithDetail(err.Error()))
		return Caller{}, false
	}
	if s.cfg.Auth == nil {
		// The anonymous tenant's name means its empty tag, not a tenant
		// of its own.
		if h := r.Header.Get(tenantKey); h != auth.AnonymousTenantID {
			c.Tenant = h
		}
	}
	if sc := scopeOf(w); sc != nil {
		sc.tenant = c.Tenant // for the access-log line
	}
	return c, true
}

// readV2 reads the request body once and decodes it into v: a body
// over rpc.MaxFrameSize is payload_too_large, anything else that fails —
// including bytes after the JSON value — bad_request. No request type
// has an interface-typed field, so there is no number mode to choose.
// A run body is read by decodeRunBody, which answers as json.Unmarshal.
func readV2(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := rpc.ReadBody(r)
	if err == nil {
		if req, ok := v.(*RunRequest); ok {
			err = decodeRunBody(body, req)
		} else {
			err = json.Unmarshal(body, v)
		}
	}
	switch {
	case err == nil:
		return true
	case errors.Is(err, rpc.ErrBodyTooLarge):
		writeV2Error(w, ErrTooLarge.WithDetail(fmt.Sprintf("body exceeds %d bytes", rpc.MaxFrameSize)))
	default:
		writeV2Error(w, ErrBadRequest.WithDetail("bad body: "+err.Error()))
	}
	return false
}

// noBody is the request type of an endpoint that takes no body; none is
// read for it.
type noBody struct{}

// endpoint is the protocol most routes share, stated once: resolve the
// caller, decode the body into a Req (unless Req is noBody), make the
// call, and write its outcome as the success or the error envelope. A
// handler behind it sees neither the ResponseWriter nor an envelope.
// Routes that need the writer (the run's cache header and idempotent
// replay, publish, the SSE stream), and the open health and auth routes
// that resolve no caller, are plain http.HandlerFuncs.
func endpoint[Req any](s *Service, h func(r *http.Request, c Caller, req *Req) (status int, data any, err error)) http.HandlerFunc {
	_, none := any((*Req)(nil)).(*noBody)
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.callerV2(w, r)
		if !ok {
			return
		}
		var req Req
		if !none && !readV2(w, r, &req) {
			return
		}
		status, data, err := h(r, c, &req)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		writeV2(w, status, data)
	}
}

// pathID is the {owner}/{name} servable ID a route addresses.
func pathID(r *http.Request) string { return r.PathValue("owner") + "/" + r.PathValue("name") }

// --- health -----------------------------------------------------------------

func (s *Service) handleV2Healthz(w http.ResponseWriter, r *http.Request) {
	writeV2(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleV2Readyz reports readiness: the durable store must take writes
// (no latched WAL error) and at least one live Task Manager must be
// registered for the service to accept serving traffic.
func (s *Service) handleV2Readyz(w http.ResponseWriter, r *http.Request) {
	if err := s.walErr(); err != nil {
		writeV2Error(w, ErrUnavailable.WithDetail("not ready: "+err.Error()))
		return
	}
	live := s.LiveTaskManagers()
	if len(live) == 0 {
		writeV2Error(w, ErrNoTaskManager.WithDetail("not ready: 0 live task managers"))
		return
	}
	writeV2(w, http.StatusOK, map[string]any{"status": "ready", "task_managers": len(live)})
}

// --- repository -------------------------------------------------------------

// PublishRequest is the POST /api/v2/servables body. Components may be
// supplied inline or as globus:// references the service downloads
// (§IV-A: "model components can be uploaded to an AWS S3 bucket or a
// Globus endpoint").
type PublishRequest struct {
	Document      json.RawMessage   `json:"document"`
	Components    map[string][]byte `json:"components,omitempty"`
	ComponentRefs map[string]string `json:"component_refs,omitempty"`
}

func (s *Service) handleV2Publish(w http.ResponseWriter, r *http.Request) {
	c, ok := s.callerV2(w, r)
	if !ok {
		return
	}
	var req PublishRequest
	if !readV2(w, r, &req) {
		return
	}
	s.idempotent(w, r, c, func(data *bytes.Buffer) (int, error) {
		pkg := &servable.Package{Components: req.Components}
		pkg.Doc = new(schema.Document)
		if err := json.Unmarshal(req.Document, pkg.Doc); err != nil {
			return 0, ErrBadRequest.WithDetail("bad document: " + err.Error())
		}
		if len(req.ComponentRefs) > 0 {
			fetched, err := s.ResolveComponents(r.Header.Get("Authorization"), req.ComponentRefs)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrUpstream, err)
			}
			if pkg.Components == nil {
				pkg.Components = map[string][]byte{}
			}
			for name, data := range fetched {
				pkg.Components[name] = data
			}
		}
		id, err := s.Publish(r.Context(), c, pkg)
		if err != nil {
			return 0, err
		}
		writeString(data, `{"id":`, id, false)
		data.WriteByte('}')
		return http.StatusCreated, nil
	})
}

// Page is the v2 cursor-paginated collection wrapper.
type Page[T any] struct {
	Items []T `json:"items"`
	// Total counts the full result set, not this page.
	Total int `json:"total"`
	// NextCursor resumes after this page; absent on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// encodeCursor/decodeCursor implement opaque offset cursors. The format
// is versioned ("v2:<offset>") so it can change shape without breaking
// stored client cursors silently.
func encodeCursor(offset int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("v2:" + strconv.Itoa(offset)))
}

func decodeCursor(cursor string) (int, error) {
	if cursor == "" {
		return 0, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return 0, ErrBadRequest.WithDetail("bad cursor")
	}
	var offset int
	if _, err := fmt.Sscanf(string(raw), "v2:%d", &offset); err != nil || offset < 0 {
		return 0, ErrBadRequest.WithDetail("bad cursor")
	}
	return offset, nil
}

// pageParams reads limit/cursor query parameters (POST bodies pass
// their own). limit defaults to defLimit, capped at 1000.
func pageParams(r *http.Request, defLimit int) (limit, offset int, err error) {
	limit = defLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 {
			return 0, 0, ErrBadRequest.WithDetail("bad limit")
		}
	}
	if limit > 1000 {
		limit = 1000
	}
	offset, err = decodeCursor(r.URL.Query().Get("cursor"))
	return limit, offset, err
}

func (s *Service) handleV2List(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	limit, offset, err := pageParams(r, 100)
	if err != nil {
		return 0, nil, err
	}
	res, err := s.Search(r.Context(), c, search.Query{Limit: limit, Offset: offset})
	if err != nil {
		return 0, nil, err
	}
	page := Page[string]{Items: make([]string, 0, len(res.Hits)), Total: res.Total}
	for _, h := range res.Hits {
		page.Items = append(page.Items, h.Doc.ID)
	}
	if offset+len(page.Items) < res.Total {
		page.NextCursor = encodeCursor(offset + len(page.Items))
	}
	return http.StatusOK, page, nil
}

// ServableView is the GET /api/v2/servables/{id} payload: the document
// plus its current placements, so operators can observe where a
// servable runs (and verify drains/undeploys moved it) without a
// separate endpoint.
type ServableView struct {
	*schema.Document
	Placements []string `json:"placements"`
}

func (s *Service) handleV2Get(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	id := pathID(r)
	doc, err := s.Get(c, id)
	if err != nil {
		return 0, nil, err
	}
	placed, err := s.ServablePlacements(c, id)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, ServableView{Document: doc, Placements: placed}, nil
}

func (s *Service) handleV2Versions(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	docs, err := s.Versions(c, pathID(r))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, Page[*schema.Document]{Items: docs, Total: len(docs)}, nil
}

func (s *Service) handleV2Dockerfile(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	df, err := s.Dockerfile(c, pathID(r))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"dockerfile": df}, nil
}

// UpdateRequest is the PATCH /api/v2/servables/{owner}/{name} body.
type UpdateRequest struct {
	Description *string  `json:"description,omitempty"`
	VisibleTo   []string `json:"visible_to,omitempty"`
	Citation    *string  `json:"citation,omitempty"`
	Identifier  *string  `json:"identifier,omitempty"`
}

func (s *Service) handleV2Update(r *http.Request, c Caller, req *UpdateRequest) (int, any, error) {
	id := pathID(r)
	err := s.UpdateMetadata(c, id, func(p *schema.Publication) {
		if req.Description != nil {
			p.Description = *req.Description
		}
		if req.VisibleTo != nil {
			p.VisibleTo = req.VisibleTo
		}
		if req.Citation != nil {
			p.Citation = *req.Citation
		}
		if req.Identifier != nil {
			p.Identifier = *req.Identifier
		}
	})
	if err != nil {
		return 0, nil, err
	}
	doc, err := s.Get(c, id)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, doc, nil
}

// handleV2Unpublish removes a servable (all versions) from the
// repository. Owner-only; in-flight runs of the servable fail at their
// next resolution.
func (s *Service) handleV2Unpublish(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	if err := s.Unpublish(c, pathID(r)); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"status": "unpublished"}, nil
}

// SearchRequest is the query part of the POST /api/v2/search body: a
// simplified query language over the index (free text, fielded
// term/prefix, year range, facets).
type SearchRequest struct {
	Q       string            `json:"q,omitempty"`
	Terms   map[string]string `json:"terms,omitempty"`
	Prefix  map[string]string `json:"prefix,omitempty"`
	YearMin *float64          `json:"year_min,omitempty"`
	YearMax *float64          `json:"year_max,omitempty"`
	Facets  []string          `json:"facets,omitempty"`
	Limit   int               `json:"limit,omitempty"`
}

// SearchRequestV2 is the POST /api/v2/search body: the query plus a
// resumption cursor.
type SearchRequestV2 struct {
	SearchRequest
	Cursor string `json:"cursor,omitempty"`
}

// SearchHitV2 pairs a servable ID with its flattened document.
type SearchHitV2 struct {
	ID  string         `json:"id"`
	Doc map[string]any `json:"doc"`
}

// SearchPageV2 is the POST /api/v2/search response data.
type SearchPageV2 struct {
	Page[SearchHitV2]
	Facets map[string]map[string]int `json:"facets,omitempty"`
}

func (s *Service) handleV2Search(r *http.Request, c Caller, req *SearchRequestV2) (int, any, error) {
	offset, err := decodeCursor(req.Cursor)
	if err != nil {
		return 0, nil, err
	}
	limit := req.Limit
	switch {
	case limit <= 0:
		limit = 100
	case limit > 1000:
		limit = 1000 // same cap as pageParams on the GET routes
	}
	q := search.Query{FacetOn: req.Facets, Limit: limit, Offset: offset}
	if req.Q != "" {
		q.Must = append(q.Must, search.Clause{FreeText: req.Q})
	}
	for field, term := range req.Terms {
		q.Must = append(q.Must, search.Clause{Field: field, Term: term})
	}
	for field, pre := range req.Prefix {
		q.Must = append(q.Must, search.Clause{Field: field, Prefix: pre})
	}
	if req.YearMin != nil || req.YearMax != nil {
		rg := &search.Range{Min: math.NaN(), Max: math.NaN()}
		if req.YearMin != nil {
			rg.Min = *req.YearMin
		}
		if req.YearMax != nil {
			rg.Max = *req.YearMax
		}
		q.Must = append(q.Must, search.Clause{Field: "year", Range: rg})
	}
	res, err := s.Search(r.Context(), c, q)
	if err != nil {
		return 0, nil, err
	}
	page := SearchPageV2{Facets: res.Facets}
	page.Total = res.Total
	page.Items = make([]SearchHitV2, 0, len(res.Hits))
	for _, h := range res.Hits {
		page.Items = append(page.Items, SearchHitV2{ID: h.Doc.ID, Doc: h.Doc.Fields})
	}
	if offset+len(page.Items) < res.Total {
		page.NextCursor = encodeCursor(offset + len(page.Items))
	}
	return http.StatusOK, page, nil
}

// --- serving ----------------------------------------------------------------

// RunRequest is the POST /api/v2/servables/{owner}/{name}/run body.
// Input and Inputs stay the bytes the client sent, compacted at the door
// (decodeRunBody): the service keys and forwards them, and only the
// servable decodes them.
type RunRequest struct {
	Input    json.RawMessage   `json:"input,omitempty"`
	Inputs   []json.RawMessage `json:"inputs,omitempty"` // batch mode when present (an empty batch is an error)
	Async    bool              `json:"async,omitempty"`
	NoMemo   bool              `json:"no_memo,omitempty"`
	NoCache  bool              `json:"no_cache,omitempty"` // bypass the service-layer cache only
	Executor string            `json:"executor,omitempty"`
}

// jsonNull is the payload of a run request that names no input.
var jsonNull = json.RawMessage("null")

// CacheHeader is set on synchronous run responses: "hit" when the
// service-layer cache (or singleflight) answered — for pipelines, when
// every step did — "miss" when the cache was consulted but a task
// dispatched, "bypass" when the cache never applied (disabled, or
// no_cache/no_memo).
const CacheHeader = "X-DLHub-Cache"

// setCacheHeader annotates a synchronous run response.
func (s *Service) setCacheHeader(w http.ResponseWriter, opts RunOptions, res *RunResult) {
	switch {
	case !s.cacheUsable(opts) || res.cacheSkipped:
		w.Header()[cacheHdrKey] = cacheBypass
	case res.CacheHit:
		w.Header()[cacheHdrKey] = cacheHit
	default:
		w.Header()[cacheHdrKey] = cacheMiss
	}
}

func (s *Service) handleV2Run(w http.ResponseWriter, r *http.Request) {
	c, ok := s.callerV2(w, r)
	if !ok {
		return
	}
	var req RunRequest
	if !readV2(w, r, &req) {
		return
	}
	switch {
	case req.Inputs != nil && req.Input != nil:
		writeV2Error(w, ErrBadRequest.WithDetail("input and inputs are mutually exclusive"))
		return
	case req.Inputs != nil && req.Async:
		writeV2Error(w, ErrBadRequest.WithDetail("an async run takes one input at a time (send input, not inputs)"))
		return
	case req.Input == nil:
		req.Input = jsonNull
	}
	id := pathID(r)
	opts := RunOptions{Executor: req.Executor, NoMemo: req.NoMemo, NoCache: req.NoCache}
	s.idempotent(w, r, c, func(data *bytes.Buffer) (int, error) {
		if req.Async {
			taskID, err := s.runAsync(r.Context(), c, id, req.Input, opts)
			if err != nil {
				return 0, err
			}
			writeString(data, `{"task_id":`, taskID, false)
			data.WriteByte('}')
			return http.StatusAccepted, nil
		}
		var res RunResult
		var err error
		if req.Inputs != nil {
			res, err = s.runBatch(r.Context(), c, id, req.Inputs, opts)
		} else {
			res, err = s.run(r.Context(), c, id, req.Input, opts)
		}
		if err != nil {
			return 0, err
		}
		s.setCacheHeader(w, opts, &res)
		writeRunResult(data, &res)
		return http.StatusOK, nil
	})
}

// DeployRequest is the deploy and scale body.
type DeployRequest struct {
	Replicas int    `json:"replicas"`
	Executor string `json:"executor,omitempty"`
	// TM pins the deploy to a named registered Task Manager (DeployTo)
	// — how operators place pipeline steps on disjoint sites. Empty
	// routes via route.pick. Scale ignores it.
	TM string `json:"tm,omitempty"`
}

func (s *Service) handleV2Deploy(r *http.Request, c Caller, req *DeployRequest) (int, any, error) {
	if err := s.DeployTo(r.Context(), c, pathID(r), req.Replicas, req.Executor, req.TM); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"status": "deployed"}, nil
}

func (s *Service) handleV2Scale(r *http.Request, c Caller, req *DeployRequest) (int, any, error) {
	if err := s.Scale(r.Context(), c, pathID(r), req.Replicas, req.Executor); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"status": "scaled"}, nil
}

// handleV2Undeploy removes one placement of a servable from a named
// Task Manager (owner-only) — the operator's tool for shrinking where a
// servable runs without unpublishing it.
func (s *Service) handleV2Undeploy(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	id, tmID := pathID(r), r.PathValue("tm")
	if err := s.Undeploy(r.Context(), c, id, tmID); err != nil {
		return 0, nil, err
	}
	placed, err := s.ServablePlacements(c, id)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]any{"status": "undeployed", "tm": tmID, "placements": placed}, nil
}

// handleV2AutoscaleGet reports a servable's autoscaler policy + state.
func (s *Service) handleV2AutoscaleGet(r *http.Request, c Caller, _ *noBody) (int, any, error) {
	st, err := s.AutoscaleStatus(c, pathID(r))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, st, nil
}

// handleV2AutoscalePut installs (or disables, with "enabled": false) a
// servable's autoscale policy and returns the resulting status.
func (s *Service) handleV2AutoscalePut(r *http.Request, c Caller, policy *AutoscalePolicy) (int, any, error) {
	if err := s.SetAutoscalePolicy(c, pathID(r), *policy); err != nil {
		return 0, nil, err
	}
	return s.handleV2AutoscaleGet(r, c, nil)
}

// --- tasks ------------------------------------------------------------------

func (s *Service) handleV2Task(r *http.Request, _ Caller, _ *noBody) (int, any, error) {
	at, err := s.TaskStatus(r.PathValue("task"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, at, nil
}

// TaskEventHeartbeat is the SSE keep-alive interval: comments flow this
// often so proxies do not reap an idle stream.
const TaskEventHeartbeat = 15 * time.Second

// handleV2TaskEvents streams task lifecycle events as Server-Sent
// Events, so clients need not poll the task. Events:
//
//	event: status  — current state, sent immediately on subscribe
//	event: done    — terminal state (completed|failed) with the result;
//	                 the stream closes after it
//
// plus ": ping" comment heartbeats. A client that disconnects stops
// costing anything; the task itself is detached and unaffected.
func (s *Service) handleV2TaskEvents(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.callerV2(w, r); !ok {
		return
	}
	taskID := r.PathValue("task")
	done, err := s.TaskWatch(taskID)
	if err != nil {
		writeV2Error(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeV2Error(w, ErrInternal.WithDetail("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(event string) bool {
		at, err := s.TaskStatus(taskID)
		if err != nil {
			return false
		}
		body, err := json.Marshal(at)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
		flusher.Flush()
		return true
	}
	if !emit("status") {
		return
	}
	ticker := time.NewTicker(TaskEventHeartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			emit("done")
			return
		case <-ticker.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// --- operations -------------------------------------------------------------

func (s *Service) handleV2TMs(*http.Request, Caller, *noBody) (int, any, error) {
	tms := s.route.snapshotTMs() // one view: the six fields agree with each other
	return http.StatusOK, map[string]any{
		"task_managers": tms.registered,
		"live":          tms.live,
		"draining":      tms.draining,
		"load":          tms.load,
		"queue_depth":   s.queueDepth(tms.registered),
		"active":        tms.active,
	}, nil
}

// handleV2TMDrain gracefully drains a Task Manager: routing stops
// immediately, queued work finishes, placements migrate to the
// remaining TMs. The response reports what moved where.
func (s *Service) handleV2TMDrain(r *http.Request, _ Caller, _ *noBody) (int, any, error) {
	res, err := s.DrainTM(r.Context(), r.PathValue("tm"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, res, nil
}

// handleV2TMRejoin reverses a drain: the live TM's drain mark is
// cleared and it returns to the routable pool (placements a drain
// migrated away are NOT restored — redeploy explicitly).
func (s *Service) handleV2TMRejoin(r *http.Request, _ Caller, _ *noBody) (int, any, error) {
	tmID := r.PathValue("tm")
	if err := s.RejoinTM(r.Context(), tmID); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"status": "rejoined", "tm": tmID}, nil
}

// handleV2TMDeregister removes a Task Manager from the registry and
// routing state (normally after a drain).
func (s *Service) handleV2TMDeregister(r *http.Request, _ Caller, _ *noBody) (int, any, error) {
	tmID := r.PathValue("tm")
	if err := s.DeregisterTM(tmID); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, map[string]string{"status": "deregistered", "tm": tmID}, nil
}

func (s *Service) handleV2CacheStats(*http.Request, Caller, *noBody) (int, any, error) {
	return http.StatusOK, map[string]any{
		"enabled": s.CacheEnabled(),
		"stats":   s.CacheStats(),
	}, nil
}

func (s *Service) handleV2CacheFlush(*http.Request, Caller, *noBody) (int, any, error) {
	s.FlushCache()
	return http.StatusOK, map[string]string{"status": "flushed"}, nil
}

func (s *Service) handleV2Stats(*http.Request, Caller, *noBody) (int, any, error) {
	return http.StatusOK, map[string]any{
		"routes":     s.RouteStats(),
		"autoscaler": s.AutoscalerStats(),
		"tasks":      s.TaskStats(),
		"failovers":  s.FailoverStats(),
		// The dead-TM watch's footprint: tms tracks the registered TM
		// count (one liveness timer each), never the in-flight dispatch
		// count.
		"watcher": s.WatcherStats(),
		// null when the server runs without a durable store (-data-dir
		// unset); counters otherwise.
		"wal": s.WALStats(),
		// Per-tenant admission/fairness counters, keyed by tenant label
		// ("anonymous" for the default lane). Empty until traffic flows.
		"tenants": s.TenantStatsAll(),
		"queue":   s.queueStats(),
	}, nil
}

// --- tenants ----------------------------------------------------------------

// handleV2Tenants lists the known tenants and their quota/priority
// configuration.
func (s *Service) handleV2Tenants(*http.Request, Caller, *noBody) (int, any, error) {
	views := s.TenantList()
	return http.StatusOK, Page[TenantView]{Items: views, Total: len(views)}, nil
}

// TenantQuotaRequest is the PUT /api/v2/tenants/{tenant}/quota body.
type TenantQuotaRequest struct {
	MaxInFlight int     `json:"max_in_flight"`
	RatePerSec  float64 `json:"rate_per_sec"`
	Priority    string  `json:"priority,omitempty"` // high | normal | low
}

// handleV2TenantQuota installs (or replaces) a tenant's quota spec and
// fairness weight; the tenant record is created if absent.
func (s *Service) handleV2TenantQuota(r *http.Request, _ Caller, req *TenantQuotaRequest) (int, any, error) {
	view, err := s.SetTenantQuota(r.PathValue("tenant"), auth.Quota{
		MaxInFlight: req.MaxInFlight,
		RatePerSec:  req.RatePerSec,
		Priority:    req.Priority,
	})
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, view, nil
}
