package core

// Task Manager lifecycle: graceful drain, dead-TM failover and
// per-placement undeploy. The paper's serving fabric assumes Task
// Managers at remote sites come and go (§IV-B registers them
// dynamically), but registration alone only covers ARRIVAL. This file
// owns the other half:
//
//   - DrainTM takes a site out of rotation without killing it: the TM
//     is excluded from every routing decision, acknowledges the drain
//     in its heartbeats, finishes the work already queued to it, and
//     has its placements migrated onto the remaining routable TMs
//     (replica records follow) before DeregisterTM removes it.
//
//   - The routing table's per-TM liveness timer aborts a dispatch
//     (dispatchTo, errTMLost) as soon as its routed TM misses the
//     liveness window, instead of letting the caller wait out the
//     full task deadline; dispatch() then re-routes still-idempotent
//     serving tasks to another placed TM under a bounded retry
//     budget. Idempotency is structural: plain
//     run / run_batch tasks (and pipeline steps, which dispatch as
//     plain runs) are pure inference — re-executing one after an
//     uncertain first attempt returns the same answer and mutates
//     nothing. Control-plane kinds and anything whose reply was
//     already delivered have no pending dispatch to fail over.
//
//   - Undeploy removes ONE placement of a servable — PR 4 could only
//     shrink placement by unpublishing the whole servable.
//
// See docs/ARCHITECTURE.md "Failure model & TM lifecycle".

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/queue"
	"repro/internal/taskmanager"
)

// errTMLost marks a dispatch aborted because the routed Task Manager
// missed its liveness window (or was deregistered) while the request
// waited. Always wrapped together with ErrNoTaskManager so an
// unrecovered loss maps to 503, while errors.Is(err, errTMLost) stays
// a precise failover trigger (ErrNoTaskManager alone also matches
// routing failures that must NOT re-dispatch).
var errTMLost = errors.New("task manager missed its liveness window mid-dispatch")

// failoverBudget resolves Config.FailoverRetries: how many re-dispatch
// attempts one request may consume (default 2; negative disables).
func (s *Service) failoverBudget() int {
	switch {
	case s.cfg.FailoverRetries < 0:
		return 0
	case s.cfg.FailoverRetries == 0:
		return 2
	default:
		return s.cfg.FailoverRetries
	}
}

// noteTMLost reacts to a detected loss: tasks the dead TM
// claimed or never pulled are withdrawn from its broker queue (their
// requesters' waiters fire too — nothing waits for a queue nobody
// consumes), and the loss is counted. Deliberately NOT a
// deregistration: a TM that was merely partitioned resumes on an empty
// queue at its next heartbeat.
func (s *Service) noteTMLost(tmID string) {
	purged := s.broker.Purge(taskmanager.TaskQueue(tmID))
	s.failoverLost.Add(1)
	if purged > 0 {
		log.Printf("core: withdrew %d task(s) queued to lost TM %s", purged, tmID)
	}
}

func (s *Service) noteFailoverRedispatch() { s.failoverRedispatched.Add(1) }

func (s *Service) noteFailoverExhausted() { s.failoverExhausted.Add(1) }

// FailoverStats counts dead-TM failover activity (the /api/v2/stats
// "failovers" block).
type FailoverStats struct {
	// Lost counts dispatches aborted because their routed TM missed
	// the liveness window mid-wait.
	Lost uint64 `json:"lost"`
	// Redispatched counts tasks re-routed to another TM after a loss.
	Redispatched uint64 `json:"redispatched"`
	// Exhausted counts requests that ran out of retry budget or
	// routable TMs and surfaced the failure to the caller.
	Exhausted uint64 `json:"exhausted"`
}

// FailoverStats snapshots the failover counters.
func (s *Service) FailoverStats() FailoverStats {
	return FailoverStats{
		Lost:         s.failoverLost.Load(),
		Redispatched: s.failoverRedispatched.Load(),
		Exhausted:    s.failoverExhausted.Load(),
	}
}

// --- graceful drain ----------------------------------------------------------

// DrainResult reports what a completed drain did to the drained TM's
// placements.
type DrainResult struct {
	TM string `json:"tm"`
	// Migrated maps servable ID -> the TM that received a fresh
	// deployment because the drained site held its only routable
	// placement.
	Migrated map[string]string `json:"migrated,omitempty"`
	// Removed lists servables whose placement entry was simply dropped
	// because another routable TM already hosts them.
	Removed []string `json:"removed,omitempty"`
}

// DrainTM gracefully takes a Task Manager out of rotation: it is
// immediately excluded from every routing decision (route.pick, the
// pipeline monolith chooser, autoscaler scale dispatches), a drain task
// tells the site to expect no new work (acknowledged in its subsequent
// heartbeats), in-flight and already-queued tasks are allowed to
// finish, and every placement it holds is migrated onto the remaining
// routable TMs — re-deployed with the recorded replica count when the
// drained site held the only copy, dropped when another site already
// hosts the servable. The TM stays registered (and draining) until
// DeregisterTM; the mark survives heartbeats, so draining is sticky.
//
// Idempotent: draining an already-draining TM re-runs the wait and
// migration, which converges to nothing left to move. If migration
// cannot place a servable (no routable TM remains), DrainTM returns the
// error with the drain mark still set — add capacity and retry. A dead
// or unresponsive TM is drained too: the ack dispatch fails fast on its
// lapsed liveness window, its queue is purged instead of waited on, and
// migration proceeds.
func (s *Service) DrainTM(ctx context.Context, tmID string) (*DrainResult, error) {
	// Committed at the mark, not at drain completion: the mark is the
	// state transition (routing excludes the site from here on), and a
	// crash mid-drain must recover with the site still out of rotation.
	// A deliberate re-drain must never be suppressed by the rejoin grace
	// window (routingTable.beat) — markDraining clears the grace entry.
	rec := recTM{TM: tmID}
	if err := s.commit(recKindDrain, func() (any, error) { return rec, s.registeredTM(tmID) }, func() { s.applyDrain(rec) }); err != nil {
		return nil, err
	}
	ctx, cancel := deployCtx(ctx)
	defer cancel()

	// Ask the site to acknowledge; tolerate a dead site (that is what
	// draining a crashed TM before deregistering it looks like).
	ackTask := taskmanager.Task{ID: queue.NewID(), Kind: "drain"}
	if _, err := s.dispatchTo(ctx, tmID, ackTask); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, wrapCtxErr(ctxErr)
		}
		// Unacknowledged drain: nothing will consume the queue, so
		// withdraw it rather than wait for it.
		log.Printf("core: drain %s: ack failed (%v); withdrawing queued tasks", tmID, err)
		s.broker.Purge(taskmanager.TaskQueue(tmID))
	} else if err := s.awaitTMIdle(ctx, tmID); err != nil {
		return nil, err
	}
	res, err := s.migratePlacements(ctx, tmID)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// awaitTMIdle blocks until nothing is outstanding against the TM: no
// dispatches waited on (tmInflight) and an empty broker queue (ready or
// claimed). Bounded by ctx; the drain mark guarantees no NEW work
// arrives while we wait.
func (s *Service) awaitTMIdle(ctx context.Context, tmID string) error {
	q := taskmanager.TaskQueue(tmID)
	for {
		inflight := s.route.snapshotTMs().load[tmID]
		if inflight == 0 && s.broker.Len(q) == 0 && s.broker.InFlight(q) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain %s: %d task(s) still in flight: %w", tmID, inflight, wrapCtxErr(ctx.Err()))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// migratePlacements moves every placement off a draining TM. Servables
// also hosted by another routable TM just lose the draining entry;
// sole-copy servables are re-deployed (recorded replica count — the
// autoscaler's view follows the move) onto the least-loaded routable
// TM first, so the window with no routable placement is zero. The
// replicas on the drained site are then torn down best-effort.
func (s *Service) migratePlacements(ctx context.Context, tmID string) (*DrainResult, error) {
	res := &DrainResult{TM: tmID}
	held := s.route.heldBy(tmID)
	for _, id := range held {
		// "Hosted elsewhere" must mean a site routing would actually
		// pick: routable AND live. A stale peer (registered, not
		// draining, heartbeats stopped) must not excuse skipping the
		// migration — dropping the drained placement would leave the
		// servable placed only on a dead site.
		elsewhere := s.route.hostedElsewhereLive(id)
		pkg := s.repo.pkg(id)
		if !elsewhere {
			if pkg == nil {
				// A placement for a since-unpublished servable; nothing
				// to migrate, just drop the entry below.
				elsewhere = true
			} else {
				// The routable pool; tmID is draining.
				target, err := s.route.pick("", nil)
				if err != nil {
					return nil, fmt.Errorf("drain %s: cannot migrate %s: %w", tmID, id, err)
				}
				switch err := s.deployOn(ctx, id, pkg, target, max(s.route.replicasOf(id), 1), ""); {
				case err == nil:
					if res.Migrated == nil {
						res.Migrated = make(map[string]string)
					}
					res.Migrated[id] = target
				case errors.Is(err, ErrNotFound), errors.Is(err, ErrConflict):
					// Unpublished mid-drain (or the target itself began
					// draining): deployOn undid the deploy; skip — the
					// entry is dropped either way.
				default:
					return nil, fmt.Errorf("drain %s: migrate %s to %s: %w", tmID, id, target, err)
				}
			}
		}
		if elsewhere {
			res.Removed = append(res.Removed, id)
		}
		if err := s.commitUndeploy(id, tmID); err != nil && !errors.Is(err, ErrNotFound) {
			return nil, err
		}
		s.undeployAsync(id, tmID)
	}
	return res, nil
}

// DeregisterTM removes a Task Manager from the registry and every piece
// of routing state naming it, and withdraws whatever is still queued to
// it. The intended flow is DrainTM then DeregisterTM; deregistering an
// undrained TM is allowed (removing a crashed site) but simply abandons
// its placements — sole-copy servables fall back to the full routable
// pool until re-deployed. A deregistered TM that is still alive and
// heartbeating re-registers on its next beat (as draining, if it had
// acknowledged a drain — the ack is sticky TM-side); stop the process
// to make removal final. A TM known only from recovered state (its
// placements or drain mark came back from the WAL, the site itself never
// did) can be deregistered too — that is how an operator forgets it.
func (s *Service) DeregisterTM(tmID string) error {
	rec := recTM{TM: tmID}
	if err := s.commit(recKindDeregister, func() (any, error) {
		if known, _, _ := s.route.state(tmID); !known {
			return nil, s.registeredTM(tmID)
		}
		return rec, nil
	}, func() { s.applyDeregister(rec) }); err != nil {
		return err
	}
	if purged := s.broker.Purge(taskmanager.TaskQueue(tmID)); purged > 0 {
		log.Printf("core: withdrew %d task(s) queued to deregistered TM %s", purged, tmID)
	}
	return nil
}

// rejoinGrace is how long after RejoinTM the registrationLoop ignores a
// heartbeat still asserting Draining: such a beat was necessarily
// marshaled before the TM acknowledged the rejoin (the TM-side flag is
// cleared before RejoinTM returns), so it is stale state in flight, not
// a new drain. Generous versus any heartbeat interval + queue backlog;
// a real re-drain sets the mark directly and clears the grace entry.
const rejoinGrace = 3 * time.Second

// RejoinTM reverses a graceful drain, returning the Task Manager to the
// routable pool — the missing half that made drain one-way (drain →
// deregister → restart the process was the only way back). The TM is
// asked to clear its drain acknowledgement first (new "rejoin" task
// kind), so once the service-side mark is dropped no future heartbeat
// re-asserts it; then the mark is cleared and the site is immediately
// eligible for routing and deployment again.
//
// Rejoining does NOT restore the placements a drain migrated away:
// the TM comes back empty, like a freshly registered site, and takes
// unplaced-pool traffic until something is deployed to it (DeployTo).
// Idempotent: rejoining a TM that is not draining just re-clears state.
// A dead or unresponsive TM cannot rejoin — the ack dispatch fails and
// the drain mark stays.
func (s *Service) RejoinTM(ctx context.Context, tmID string) error {
	if err := s.registeredTM(tmID); err != nil {
		return err
	}
	ctx, cancel := deployCtx(ctx)
	defer cancel()
	task := taskmanager.Task{ID: queue.NewID(), Kind: "rejoin"}
	if _, err := s.dispatchTo(ctx, tmID, task); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return wrapCtxErr(ctxErr)
		}
		return fmt.Errorf("rejoin %s: site did not acknowledge (a dead TM cannot rejoin): %w", tmID, err)
	}
	rec := recTM{TM: tmID}
	return s.commit(recKindRejoin, func() (any, error) { return rec, nil }, func() { s.applyRejoin(rec) })
}

// --- per-placement undeploy --------------------------------------------------

// Undeploy removes ONE placement of a servable: its replicas on the
// named Task Manager are torn down and the placement entry dropped, so
// operators can shrink where a servable runs without unpublishing it.
// Owner-only, mirroring Unpublish. The placement entry is removed
// FIRST — no new task can route to the site while the teardown task is
// in flight — and the teardown itself tolerates a lost TM (its replicas
// die with it). The desired-replica record is untouched: it describes
// per-site scale, which the remaining placements keep.
func (s *Service) Undeploy(ctx context.Context, caller Caller, servableID, tmID string) error {
	doc, err := s.Get(caller, servableID)
	if err != nil {
		return err
	}
	if doc.Owner != caller.IdentityID {
		return fmt.Errorf("%w: only the owner may undeploy %s", ErrForbidden, servableID)
	}
	if err := s.commitUndeploy(servableID, tmID); err != nil {
		return err
	}
	ctx, cancel := deployCtx(ctx)
	defer cancel()
	task := taskmanager.Task{ID: queue.NewID(), Kind: "undeploy", Servable: servableID}
	if _, err := s.dispatchTo(ctx, tmID, task); err != nil {
		if errors.Is(err, errTMLost) || errors.Is(err, ErrTimeout) {
			// The site is gone or unreachable; the placement record is
			// already removed, which is the part that matters.
			log.Printf("core: undeploy %s from %s: best-effort teardown failed: %v", servableID, tmID, err)
			return nil
		}
		return err
	}
	return nil
}

// commitUndeploy commits the removal of one placement; one that is not
// there is ErrNotFound.
func (s *Service) commitUndeploy(servableID, tmID string) error {
	rec := recPlacement{ID: servableID, TM: tmID}
	return s.commit(recKindUndeploy, func() (any, error) {
		if !slices.Contains(s.route.placementsOf(servableID), tmID) {
			return nil, ErrNotFound.WithDetail(fmt.Sprintf("%s has no placement on task manager %q", servableID, tmID))
		}
		return rec, nil
	}, func() { s.applyUndeploy(rec) })
}

// registeredTM is ErrNoTaskManager for a TM that is not registered.
func (s *Service) registeredTM(tmID string) error {
	if _, registered, _ := s.route.state(tmID); !registered {
		return ErrNoTaskManager.WithDetail(fmt.Sprintf("task manager %q not registered", tmID))
	}
	return nil
}

// ServablePlacements reports which Task Managers host a servable,
// subject to the caller's visibility.
func (s *Service) ServablePlacements(caller Caller, servableID string) ([]string, error) {
	if _, err := s.Get(caller, servableID); err != nil {
		return nil, err
	}
	return s.route.placementsOf(servableID), nil
}
