package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/queue"
	"repro/internal/schema"
	"repro/internal/taskmanager"
)

// Pipeline execution. The paper lets users "construct pipelines" of
// published servables (§VI-D) and the original implementation shipped
// the whole step chain to one Task Manager for server-side chaining —
// which only works when every step happens to be deployed at that one
// site, bypasses the service-layer result cache, and charges all
// demand to the first step.
//
// The service now orchestrates pipelines itself. Each step is routed
// independently through route.pick (placement + least-outstanding load for
// THAT step), its output feeds the next step's input, and every step
// participates in the result cache and in admission/demand accounting
// under its OWN servable ID — an autoscale policy on an individual
// step sees pipeline traffic, and a hot prefix of unchanged steps is
// served from cache without dispatching anything. The TM-local
// monolith remains as an explicit fast path, taken only when every
// step is live on a single TM: one queue round trip instead of N, at
// the cost of skipping the per-step cache.
//
// Cache contract: step entries use the same (stepID, version, "run",
// input) key space as plain Runs, so pipeline prefixes and direct
// invocations share entries, and republishing a step invalidates only
// that step's entries (the version in the key misses anyway; the
// Publish hook drops them eagerly).

// runPipeline executes a published pipeline: the TM-local monolith
// when every step is co-deployed on one live TM, the per-step
// distributed engine otherwise. Caller (Run) owns the deadline on ctx.
func (s *Service) runPipeline(ctx context.Context, caller Caller, doc *schema.Document, input json.RawMessage, opts RunOptions) (RunResult, error) {
	start := time.Now()
	// The caller must be able to see every step at submission;
	// visibility is re-checked per step as the pipeline advances.
	steps := make([]string, len(doc.Servable.Steps))
	for i, step := range doc.Servable.Steps {
		stepDoc, err := s.Get(caller, step)
		if err != nil {
			return RunResult{}, fmt.Errorf("pipeline step %q: %w", step, err)
		}
		steps[i] = stepDoc.ID
	}
	// Admission is checked against the pipeline's own published ID on
	// BOTH paths — a MaxQueue policy on the pipeline keeps meaning the
	// same thing whether placement happens to allow the monolith or
	// not. (The distributed engine additionally admits each step under
	// its own ID as it dispatches.)
	if err := s.admitRun(caller, doc.ID, 1); err != nil {
		return RunResult{}, err
	}
	defer s.route.unreserve(caller.Tenant, doc.ID, 1)
	if tmID, ok := s.route.monolithTM(steps); ok {
		// Fast path: the whole chain runs on one TM; demand is charged
		// to the pipeline ID by dispatchTo.
		task := taskmanager.Task{
			ID:       queue.NewID(),
			Kind:     "pipeline",
			Servable: doc.ID,
			Executor: opts.Executor,
			Input:    input,
			Steps:    steps,
			NoMemo:   opts.NoMemo,
			Tenant:   caller.Tenant,
		}
		res, err := s.dispatchTo(ctx, tmID, task)
		if err != nil && errors.Is(err, errTMLost) && ctx.Err() == nil {
			// The co-hosting TM died mid-chain. The steps are
			// idempotent plain runs, so fail over to the distributed
			// engine, which routes each step through the surviving
			// placements instead of re-finding one common site.
			s.noteTMLost(tmID)
			s.noteFailoverRedispatch()
			return s.runPipelineSteps(ctx, caller, steps, input, opts, start)
		}
		// The monolith chain runs entirely TM-side: the service-layer
		// cache was never consulted.
		res.cacheSkipped = true
		return res, err
	}
	return s.runPipelineSteps(ctx, caller, steps, input, opts, start)
}

// runPipelineSteps is the distributed engine: each step is resolved,
// cached, admitted and routed independently; outputs chain into the
// next step's input. Cancellation is checked between steps, so a
// canceled caller stops the pipeline at the current step boundary and
// never dispatches the remainder.
func (s *Service) runPipelineSteps(ctx context.Context, caller Caller, steps []string, input json.RawMessage, opts RunOptions, start time.Time) (RunResult, error) {
	current := input
	stats := make([]taskmanager.StepStat, 0, len(steps))
	var totalInf, totalInv int64
	allHits := true
	for i, stepID := range steps {
		if err := ctx.Err(); err != nil {
			return RunResult{}, wrapCtxErr(err)
		}
		// Re-resolve per step: a step unpublished or hidden from the
		// caller while the pipeline runs fails here, not with a stale
		// document.
		stepDoc, err := s.Get(caller, stepID)
		if err != nil {
			return RunResult{}, fmt.Errorf("pipeline step %d (%s): %w", i+1, stepID, err)
		}
		// A step is a plain run of that servable, sharing its cache
		// entries with direct invocations.
		res, err := s.runOne(ctx, caller, stepID, stepDoc.Version, current, opts)
		if err != nil {
			return RunResult{}, fmt.Errorf("pipeline step %d (%s): %w", i+1, stepID, err)
		}
		// request_us > 0 is the documented distributed-path marker;
		// clamp it so a sub-microsecond cache hit cannot read as 0 and
		// masquerade as a monolith step.
		reqUS := res.RequestMicros
		if reqUS <= 0 {
			reqUS = 1
		}
		stats = append(stats, taskmanager.StepStat{
			Servable:         stepID,
			Version:          stepDoc.Version,
			InferenceMicros:  res.InferenceMicros,
			InvocationMicros: res.InvocationMicros,
			RequestMicros:    reqUS,
			Cached:           res.Cached,
			CacheHit:         res.CacheHit,
		})
		totalInf += res.InferenceMicros
		totalInv += res.InvocationMicros
		allHits = allHits && res.CacheHit
		// The step's output bytes are the next step's input (a hit's
		// alias the stored entry; nothing here writes them).
		current = res.Output
	}
	res := RunResult{
		Reply: Reply{
			OK:               true,
			Output:           current,
			InferenceMicros:  totalInf,
			InvocationMicros: totalInv,
			Steps:            stats,
		},
		RequestMicros: time.Since(start).Microseconds(),
	}
	if allHits && len(stats) > 0 {
		// Every step answered from the service-layer cache: the
		// pipeline as a whole dispatched nothing.
		res.CacheHit = true
		res.Cached = true
	}
	return res, nil
}
