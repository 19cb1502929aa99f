package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/queue"
	"repro/internal/taskmanager"
)

// Adaptive request coalescing implements the paper's stated future work
// (§V-B3): "we intend to use such servable profiles to design adaptive
// batching algorithms that intelligently distribute serving requests to
// reduce latency."
//
// When coalescing is enabled for a servable, individual synchronous
// requests are held briefly and flushed to the Task Manager as one
// batch task when either the batch fills or the adaptive hold window
// expires. The hold window follows a per-servable profile — an EWMA of
// observed per-item service time — so cheap servables flush almost
// immediately (their latency budget is small) while expensive servables
// wait longer to amortize dispatch and WAN costs over more requests.

// BatchPolicy configures coalescing for one servable.
type BatchPolicy struct {
	// MaxBatch flushes when this many requests are pending (default 32).
	MaxBatch int
	// MaxDelay bounds the hold window (default 20ms).
	MaxDelay time.Duration
	// Adaptive scales the hold window with the servable's observed
	// per-item service time; false holds for MaxDelay always.
	Adaptive bool
}

func (p BatchPolicy) withDefaults() BatchPolicy {
	if p.MaxBatch <= 0 {
		p.MaxBatch = 32
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 20 * time.Millisecond
	}
	return p
}

type pendingReq struct {
	input json.RawMessage
	done  chan coalesceOutcome
}

type coalesceOutcome struct {
	output any
	reply  taskmanager.Reply
	err    error
}

// batcher coalesces requests for one servable.
type batcher struct {
	svc      *Service
	servable string
	policy   BatchPolicy

	mu      sync.Mutex
	pending []*pendingReq
	timer   *time.Timer
	// closed marks a batcher shut down by Service.Close: enqueue fails
	// new requests immediately instead of parking them on a timer that
	// will dispatch into a dead broker.
	closed bool
	// profileUS is the EWMA of per-item service time in microseconds.
	profileUS float64
	flushes   uint64
	items     uint64
	// failures counts dispatches whose coalesced batch failed (every
	// member saw the error).
	failures uint64
}

// EnableCoalescing turns adaptive batching on for a servable.
func (s *Service) EnableCoalescing(servableID string, policy BatchPolicy) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batchers == nil {
		s.batchers = make(map[string]*batcher)
	}
	s.batchers[servableID] = &batcher{svc: s, servable: servableID, policy: policy.withDefaults()}
}

// DisableCoalescing removes a servable's batcher (pending requests
// still flush).
func (s *Service) DisableCoalescing(servableID string) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if b := s.batchers[servableID]; b != nil {
		go b.flush()
	}
	delete(s.batchers, servableID)
}

// CoalesceStats counts a batcher's activity: dispatched batches,
// coalesced member requests, failed dispatches (batches whose every
// member received the error), and the currently held backlog.
type CoalesceStats struct {
	Flushes  uint64 `json:"flushes"`
	Items    uint64 `json:"items"`
	Failures uint64 `json:"failures"`
	// Pending is the number of requests currently held for the next
	// flush (a point-in-time gauge, not a counter).
	Pending int `json:"pending"`
}

// CoalescingStats reports a servable's batcher counters (zero when
// coalescing is not enabled).
func (s *Service) CoalescingStats(servableID string) CoalesceStats {
	s.batchMu.Lock()
	b := s.batchers[servableID]
	s.batchMu.Unlock()
	if b == nil {
		return CoalesceStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return CoalesceStats{Flushes: b.flushes, Items: b.items, Failures: b.failures, Pending: len(b.pending)}
}

// batcherPending reports how many requests a servable's batcher is
// currently holding — part of the autoscaler's demand signal and the
// admission-control count.
func (s *Service) batcherPending(servableID string) int {
	s.batchMu.Lock()
	b := s.batchers[servableID]
	s.batchMu.Unlock()
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// closeBatchers fails every batcher's pending requests with ErrCanceled
// on Service.Close. Without this, requests parked on a hold-window
// timer would dispatch into a closed broker and strand their callers
// until each caller's own deadline.
func (s *Service) closeBatchers() {
	s.batchMu.Lock()
	batchers := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		batchers = append(batchers, b)
	}
	s.batchMu.Unlock()
	for _, b := range batchers {
		b.close()
	}
}

// close marks the batcher dead and fails its pending requests.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pend := b.take()
	if len(pend) > 0 {
		b.failures++
	}
	b.mu.Unlock()
	err := fmt.Errorf("%w: service shutting down", ErrCanceled)
	for _, r := range pend {
		r.done <- coalesceOutcome{err: err}
	}
}

// RunCoalesced invokes a servable through its batcher; with no batcher
// enabled it falls back to a plain Run. Visibility is enforced before
// enqueueing. The service-layer result cache fronts the batcher: a hit
// answers immediately (same key space as Run, so coalesced and plain
// requests share entries), and each computed item is stored on the way
// out. A canceled caller abandons only its own wait — the coalesced
// batch keeps serving its other members.
func (s *Service) RunCoalesced(ctx context.Context, caller Caller, servableID string, input any, opts RunOptions) (RunResult, error) {
	raw, err := encodeInput(input)
	if err != nil {
		return RunResult{}, err
	}
	return s.runCoalesced(ctx, caller, servableID, raw, opts)
}

func (s *Service) runCoalesced(ctx context.Context, caller Caller, servableID string, input json.RawMessage, opts RunOptions) (RunResult, error) {
	s.batchMu.Lock()
	b := s.batchers[servableID]
	s.batchMu.Unlock()
	if b == nil {
		return s.run(ctx, caller, servableID, input, opts)
	}
	doc, err := s.Get(caller, servableID)
	if err != nil {
		return RunResult{}, err
	}
	ctx, cancel := s.reqCtx(ctx)
	defer cancel()
	start := time.Now()
	var key string
	var gen uint64
	if s.cacheUsable(opts) {
		if k, err := resultKey(servableID, doc.Version, input); err == nil {
			key = k
			if res, ok := s.cache.get(key); ok {
				return markCacheHit(res, start), nil
			}
			gen = s.cache.generation(servableID)
		}
	}
	// Admission control gates the enqueue exactly like a plain Run's
	// dispatch: a held coalescing slot is pending demand too. The
	// reservation is held until this member's outcome arrives (or its
	// ctx ends) — parked requests keep counting against the bound.
	release, err := s.admitRun(caller, servableID, 1)
	if err != nil {
		return RunResult{}, err
	}
	defer release()
	req := &pendingReq{input: input, done: make(chan coalesceOutcome, 1)}
	b.enqueue(req)

	select {
	case out := <-req.done:
		if out.err != nil {
			return RunResult{}, out.err
		}
		res := RunResult{Reply: out.reply, RequestMicros: time.Since(start).Microseconds()}
		res.Output = out.output
		res.Outputs = nil
		if key != "" {
			s.cache.put(key, servableID, gen, res)
		}
		return res, nil
	case <-ctx.Done():
		return RunResult{}, wrapCtxErr(ctx.Err())
	}
}

// enqueue adds a request, arming the flush timer or flushing on a full
// batch. On a closed batcher the request fails immediately.
func (b *batcher) enqueue(req *pendingReq) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		req.done <- coalesceOutcome{err: fmt.Errorf("%w: service shutting down", ErrCanceled)}
		return
	}
	b.pending = append(b.pending, req)
	if len(b.pending) >= b.policy.MaxBatch {
		pend := b.take()
		b.mu.Unlock()
		go b.dispatch(pend)
		return
	}
	if b.timer == nil {
		delay := b.holdWindow()
		b.timer = time.AfterFunc(delay, b.flush)
	}
	b.mu.Unlock()
}

// holdWindow computes the adaptive delay from the servable profile.
// Callers hold b.mu.
func (b *batcher) holdWindow() time.Duration {
	if !b.policy.Adaptive || b.profileUS == 0 {
		return b.policy.MaxDelay
	}
	// Hold for ~2x the per-item service time: cheap servables flush
	// fast, expensive ones accumulate more amortization.
	d := time.Duration(2 * b.profileUS * float64(time.Microsecond))
	if d < 200*time.Microsecond {
		d = 200 * time.Microsecond
	}
	if d > b.policy.MaxDelay {
		d = b.policy.MaxDelay
	}
	return d
}

// take drains pending and disarms the timer. Callers hold b.mu.
func (b *batcher) take() []*pendingReq {
	pend := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return pend
}

func (b *batcher) flush() {
	b.mu.Lock()
	pend := b.take()
	b.mu.Unlock()
	if len(pend) > 0 {
		b.dispatch(pend)
	}
}

// dispatch sends one coalesced batch task and distributes results.
func (b *batcher) dispatch(pend []*pendingReq) {
	inputs := make([]json.RawMessage, len(pend))
	for i, r := range pend {
		inputs[i] = r.input
	}
	task := taskmanager.Task{
		ID:       queue.NewID(),
		Kind:     "run_batch",
		Servable: b.servable,
		Inputs:   inputs,
		NoMemo:   true,
	}
	start := time.Now()
	// The batch aggregates many callers, so it dispatches under the
	// service lifetime ctx with the service-default deadline rather
	// than any single member's ctx — and Service.Close aborts it.
	res, err := b.svc.dispatch(b.svc.lifeCtx, task)
	if err != nil {
		b.mu.Lock()
		b.failures++
		b.mu.Unlock()
		for _, r := range pend {
			r.done <- coalesceOutcome{err: err}
		}
		return
	}
	// Update the servable profile (per-item wall time for this batch).
	perItemUS := float64(time.Since(start).Microseconds()) / float64(len(pend))
	b.mu.Lock()
	if b.profileUS == 0 {
		b.profileUS = perItemUS
	} else {
		b.profileUS = 0.8*b.profileUS + 0.2*perItemUS
	}
	b.flushes++
	b.items += uint64(len(pend))
	b.mu.Unlock()

	if len(res.Outputs) != len(pend) {
		err := fmt.Errorf("core: coalesced batch returned %d outputs for %d requests", len(res.Outputs), len(pend))
		b.mu.Lock()
		b.failures++
		b.mu.Unlock()
		for _, r := range pend {
			r.done <- coalesceOutcome{err: err}
		}
		return
	}
	for i, r := range pend {
		reply := res.Reply
		reply.Outputs = nil
		r.done <- coalesceOutcome{output: res.Outputs[i], reply: reply}
	}
}
