package core

// routingTable is the serving-path half of the Management Service's
// state, split out of the repository (PR 8) so routing never contends
// with repository writes: TM registry and heartbeat freshness,
// placements, desired replicas, drain marks, in-flight and
// admission-reservation counters. It has its OWN lock; the catalogue
// has the repository's (repository.go).
//
// Lock order: repository.mu may be HELD while calling into the routing
// table (the few cross-domain control-plane operations —
// recordDeployment, recordReplicas, Unpublish, WAL replay — run their
// routing write inside repository.whilePublished or repository.remove
// to stay atomic against each other), but routing-table methods never
// reach the repository, and no caller may acquire repository.mu while
// holding rt.mu (rt.mu is private to this file, so that cannot happen
// by construction). The hot path — pick, in-flight accounting,
// admission reserve/release — therefore only ever takes rt.mu, and a
// Publish holding repository.mu cannot stall a single routed run. See
// docs/ARCHITECTURE.md "Concurrency model".
//
// Methods are self-locking; the *Locked helpers at the bottom require
// rt.mu (read or write as documented) and exist so composite routing
// decisions (pick, monolithTM) make one decision under one critical
// section.

import (
	"fmt"
	"sync"
	"time"
)

type routingTable struct {
	mu   sync.RWMutex
	tms  []string
	seen map[string]time.Time
	rr   int
	// draining marks TMs taken out of rotation by DrainTM: they stay
	// registered (heartbeats keep arriving, in-flight work finishes)
	// but no routing decision selects them. Cleared by RejoinTM and
	// deregister.
	draining map[string]struct{}
	// rejoined records when RejoinTM last cleared a TM's drain mark.
	// Heartbeats are set-only for the drain mark, so a beat marshaled
	// BEFORE the TM acknowledged the rejoin (still carrying
	// Draining=true) could re-mark a freshly rejoined site forever;
	// beat ignores the flag within rejoinGrace of a rejoin. markDraining
	// deletes the entry, so a deliberate re-drain is never suppressed.
	rejoined map[string]time.Time
	// inflight counts dispatched-but-unanswered tasks per TM; pick
	// routes to the least loaded live candidate.
	inflight map[string]int
	// active holds the executing-task counts each TM self-reports in
	// its heartbeat registrations — the TM-side view of queue depth.
	active map[string]int
	// svInflight counts dispatched-but-unanswered run/batch/pipeline
	// work units per servable (batches weigh their input count) — the
	// demand signal the autoscaler acts on.
	svInflight map[string]int
	// Admission-control reservation table: admitted-but-unfinished
	// requests, reserved atomically at the admission check so a
	// concurrent burst cannot overrun either bound. resvSv and
	// resvTenant are the per-servable and per-tenant totals the two
	// bounds are checked against (the servable MaxQueue bound and the
	// tenant MaxInFlight quota); resvTenant is also the in-flight count
	// stats report. Entries are deleted when they reach zero, so a fully
	// drained table is literally empty.
	resvSv     map[string]int
	resvTenant map[string]int
	// replicas tracks the desired replica count per servable, updated
	// by Deploy/Scale — the autoscaler's notion of current scale.
	replicas map[string]int
	// placements maps servable ID -> Task Managers hosting it, so runs
	// are routed to capable sites (§IV-A: the Management Service
	// "route[s] workloads to suitable executors").
	placements map[string][]string
}

func newRoutingTable() *routingTable {
	return &routingTable{
		seen:       make(map[string]time.Time),
		draining:   make(map[string]struct{}),
		rejoined:   make(map[string]time.Time),
		inflight:   make(map[string]int),
		active:     make(map[string]int),
		svInflight: make(map[string]int),
		resvSv:     make(map[string]int),
		resvTenant: make(map[string]int),
		replicas:   make(map[string]int),
		placements: make(map[string][]string),
	}
}

// beat records one registration/heartbeat: the TM is (re-)registered,
// its freshness stamped, its self-reported active count stored, and a
// draining assertion folded in under the rejoin-grace rule.
func (rt *routingTable) beat(tmID string, active int, draining bool, now time.Time) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	present := false
	for _, id := range rt.tms {
		if id == tmID {
			present = true
			break
		}
	}
	if !present {
		rt.tms = append(rt.tms, tmID)
	}
	rt.seen[tmID] = now
	rt.active[tmID] = active
	if draining {
		// The TM asserts it is draining (the drain-task ack echoed in
		// heartbeats). Set-only: a heartbeat without the flag must not
		// clear a service-side drain mark the drain task simply has not
		// reached yet. The one exception is a beat marshaled just BEFORE
		// the TM acknowledged a rejoin — ignore the stale assertion
		// inside the rejoin grace window.
		if at, rejoined := rt.rejoined[tmID]; !rejoined || now.Sub(at) > rejoinGrace {
			rt.draining[tmID] = struct{}{}
		}
	}
}

// list returns the registered TM IDs.
func (rt *routingTable) list() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.tms...)
}

// live filters the registry by heartbeat freshness; with liveness
// disabled (staleAfter <= 0) every registered TM passes.
func (rt *routingTable) live(now time.Time, staleAfter time.Duration) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.liveLocked(rt.tms, now, staleAfter)
}

// isRegistered reports whether a TM ID is in the registry.
func (rt *routingTable) isRegistered(tmID string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.registeredLocked([]string{tmID})) > 0
}

// isDraining reports whether a TM is marked draining.
func (rt *routingTable) isDraining(tmID string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	_, draining := rt.draining[tmID]
	return draining
}

// drainingAll lists TMs currently marked draining.
func (rt *routingTable) drainingAll() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.draining))
	for id := range rt.draining {
		out = append(out, id)
	}
	return out
}

// markDraining sets a TM's drain mark (DrainTM and WAL replay). A
// deliberate (re-)drain must never be suppressed by the rejoin grace
// window, so the grace entry is cleared too.
func (rt *routingTable) markDraining(tmID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.draining[tmID] = struct{}{}
	delete(rt.rejoined, tmID)
}

// clearDrainMark drops a TM's drain mark and stamps the rejoin-grace
// window (RejoinTM).
func (rt *routingTable) clearDrainMark(tmID string, now time.Time) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.draining, tmID)
	rt.rejoined[tmID] = now
}

// applyRejoin drops a TM's drain mark without stamping the grace
// window — the WAL replay form (at boot there is no in-flight stale
// heartbeat to guard against).
func (rt *routingTable) applyRejoin(tmID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.draining, tmID)
}

// deregister removes a TM from the registry and every piece of routing
// state naming it. Reports whether the TM was registered.
func (rt *routingTable) deregister(tmID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	found := false
	for i, id := range rt.tms {
		if id == tmID {
			rt.tms = append(rt.tms[:i], rt.tms[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	delete(rt.seen, tmID)
	delete(rt.active, tmID)
	delete(rt.inflight, tmID)
	delete(rt.draining, tmID)
	delete(rt.rejoined, tmID)
	for id := range rt.placements {
		rt.removePlacementLocked(id, tmID)
	}
	return true
}

// applyDeregister is deregister for WAL replay: identical removal, but
// an absent TM is not an error (the checkpoint may already contain the
// removal).
func (rt *routingTable) applyDeregister(tmID string) { rt.deregister(tmID) }

// pick selects a Task Manager by least outstanding requests: among the
// live candidates (restricted to placement sites when servableID is
// known to be placed), the one with the fewest in-flight dispatches
// wins; ties fall back to round-robin so uniform load still spreads.
// Placement entries naming unregistered OR draining TMs — snapshot
// ghosts, sites being taken out of rotation — are ignored: routing
// into their queues would strand the request until its deadline. When
// no placed TM is routable, routing falls back to every routable
// registered TM (a fast task_failed from an undeployed site beats a
// silent hang). excluded is the failover path's exclusion list.
func (rt *routingTable) pick(servableID string, excluded []string, now time.Time, staleAfter time.Duration) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	candidates := rt.routableLocked(rt.tms, excluded)
	if servableID != "" {
		if placed := rt.placements[servableID]; len(placed) > 0 {
			if routable := rt.routableLocked(placed, excluded); len(routable) > 0 {
				candidates = routable
			}
		}
	}
	tm, ok := rt.leastLoadedLocked(rt.liveLocked(candidates, now, staleAfter))
	if !ok {
		return "", ErrNoTaskManager
	}
	return tm, nil
}

// monolithTM returns a routable (registered, not draining), live Task
// Manager hosting EVERY step (least loaded wins, round-robin on ties)
// — the condition for the pipeline TM-local fast path. Any step
// unplaced, or no common routable live site, means the service must
// orchestrate the steps itself.
func (rt *routingTable) monolithTM(steps []string, now time.Time, staleAfter time.Duration) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var common []string
	for i, step := range steps {
		placed := rt.placements[step]
		if len(placed) == 0 {
			return "", false
		}
		if i == 0 {
			common = append([]string(nil), placed...)
			continue
		}
		kept := common[:0]
		for _, tm := range common {
			for _, p := range placed {
				if tm == p {
					kept = append(kept, tm)
					break
				}
			}
		}
		common = kept
		if len(common) == 0 {
			return "", false
		}
	}
	return rt.leastLoadedLocked(rt.liveLocked(rt.routableLocked(common, nil), now, staleAfter))
}

// loadAll reports in-flight (dispatched, not yet answered) task counts
// per registered TM.
func (rt *routingTable) loadAll() map[string]int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	load := make(map[string]int, len(rt.tms))
	for _, id := range rt.tms {
		load[id] = rt.inflight[id]
	}
	return load
}

// activeAll reports the executing-task counts each TM last
// self-reported in its heartbeat registration.
func (rt *routingTable) activeAll() map[string]int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	active := make(map[string]int, len(rt.tms))
	for _, id := range rt.tms {
		active[id] = rt.active[id]
	}
	return active
}

// inflightOf reports one TM's in-flight dispatch count.
func (rt *routingTable) inflightOf(tmID string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.inflight[tmID]
}

// addInflight charges one dispatch to a TM (and, for serving kinds, its
// weighted demand to the servable) — dispatchTo's accounting.
func (rt *routingTable) addInflight(tmID, servableID string, weight int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.inflight[tmID]++
	if servableID != "" {
		rt.svInflight[servableID] += weight
	}
}

// subInflight reverses addInflight, clamping at zero — the counters
// track requests the service is waiting on and must not go negative
// when replies and deregistrations race.
func (rt *routingTable) subInflight(tmID, servableID string, weight int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.inflight[tmID] > 0 {
		rt.inflight[tmID]--
	}
	if servableID != "" {
		if rt.svInflight[servableID] >= weight {
			rt.svInflight[servableID] -= weight
		} else {
			rt.svInflight[servableID] = 0
		}
	}
}

// servableLoad reports the in-flight run/batch/pipeline work-unit count
// for one servable — the autoscaler's demand signal.
func (rt *routingTable) servableLoad(servableID string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.svInflight[servableID]
}

// admitVerdict is reserve's outcome: admitted, refused by the
// servable's pending bound (overloaded), or refused by the tenant's
// in-flight quota (quota exceeded).
type admitVerdict int

const (
	admitOK admitVerdict = iota
	admitOverloaded
	admitQuota
)

// reserve is the admission-control check-and-reserve: the servable's
// pending bound and the tenant's in-flight quota are checked and the
// reservation taken under ONE critical section, so a simultaneous
// burst cannot slip past either bound. A bound <= 0 is unenforced; the
// reservation itself is always recorded (it is the in-flight accounting
// for stats and release). pending reports the count the refused axis
// was observed at.
func (rt *routingTable) reserve(tenant, servableID string, weight, svBound, tenantBound int) (pending int, v admitVerdict) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if svBound > 0 {
		if p := rt.resvSv[servableID]; p >= svBound {
			return p, admitOverloaded
		}
	}
	if tenantBound > 0 {
		if p := rt.resvTenant[tenant]; p >= tenantBound {
			return p, admitQuota
		}
	}
	rt.resvSv[servableID] += weight
	rt.resvTenant[tenant] += weight
	return 0, admitOK
}

// unreserve releases an admission reservation, clamping at zero and
// deleting exhausted entries so a drained table is empty.
func (rt *routingTable) unreserve(tenant, servableID string, weight int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	dec := func(m map[string]int, k string) {
		if m[k] > weight {
			m[k] -= weight
		} else {
			delete(m, k)
		}
	}
	dec(rt.resvSv, servableID)
	dec(rt.resvTenant, tenant)
}

// reservedByTenant snapshots the per-tenant in-flight reservation
// totals (the stats view of the tenant axis).
func (rt *routingTable) reservedByTenant() map[string]int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]int, len(rt.resvTenant))
	for t, n := range rt.resvTenant {
		out[t] = n
	}
	return out
}

// reservationsEmpty reports whether every admission reservation has
// been released — the drain-to-zero invariant the storm test pins.
func (rt *routingTable) reservationsEmpty() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.resvSv) == 0 && len(rt.resvTenant) == 0
}

// placementsAll reports which TMs host each servable (copies).
func (rt *routingTable) placementsAll() map[string][]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string][]string, len(rt.placements))
	for id, tms := range rt.placements {
		out[id] = append([]string(nil), tms...)
	}
	return out
}

// placementsOf reports which TMs host one servable.
func (rt *routingTable) placementsOf(servableID string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string{}, rt.placements[servableID]...)
}

// heldBy lists the servables with a placement on the given TM — the
// drain migration work list.
func (rt *routingTable) heldBy(tmID string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var held []string
	for id, placed := range rt.placements {
		for _, p := range placed {
			if p == tmID {
				held = append(held, id)
				break
			}
		}
	}
	return held
}

// hostedElsewhereLive reports whether a servable has a placement on a
// site routing would actually pick: routable AND live. Used by drain
// migration — a stale peer (registered, not draining, heartbeats
// stopped) must not excuse skipping a migration.
func (rt *routingTable) hostedElsewhereLive(servableID string, now time.Time, staleAfter time.Duration) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.liveLocked(rt.routableLocked(rt.placements[servableID], nil), now, staleAfter)) > 0
}

// recordDeployment records placement and desired replicas for a
// completed deploy, but ONLY while the target TM is still routable: a
// deploy that lost the race to a concurrent DrainTM (or a
// deregistration) must not re-grow placement on a site being emptied —
// the drain's migration pass has already run or will never see this
// entry. The servable-existence half of the check stays with the
// caller (Service.recordDeployment), which holds the repository lock
// across this call.
func (rt *routingTable) recordDeployment(servableID, tmID string, replicas int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, draining := rt.draining[tmID]; draining {
		return fmt.Errorf("%w: task manager %s is draining", ErrConflict, tmID)
	}
	if len(rt.registeredLocked([]string{tmID})) == 0 {
		return fmt.Errorf("%w: task manager %s deregistered during deploy", ErrConflict, tmID)
	}
	rt.addPlacementLocked(servableID, tmID)
	rt.replicas[servableID] = replicas
	return nil
}

// applyDeploy is the WAL-replay upsert form of recordDeployment: no
// routability checks (the record describes a deploy that already
// happened), replicas only updated when the record carries a count.
func (rt *routingTable) applyDeploy(servableID, tmID string, replicas int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.addPlacementLocked(servableID, tmID)
	if replicas > 0 {
		rt.replicas[servableID] = replicas
	}
}

// removePlacement drops one (servable, TM) placement entry, deleting
// the map key when it was the last one.
func (rt *routingTable) removePlacement(servableID, tmID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.removePlacementLocked(servableID, tmID)
}

// dropServable removes every routing trace of a servable (Unpublish),
// returning the TMs that were hosting it so the caller can tear their
// replicas down.
func (rt *routingTable) dropServable(servableID string) (placed []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	placed = append(placed, rt.placements[servableID]...)
	delete(rt.placements, servableID)
	delete(rt.replicas, servableID)
	return placed
}

// setReplicas records the desired replica count (Scale outcome / WAL
// replay).
func (rt *routingTable) setReplicas(servableID string, replicas int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.replicas[servableID] = replicas
}

// replicasOf reports the desired replica count (0 when never deployed).
func (rt *routingTable) replicasOf(servableID string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.replicas[servableID]
}

// routeSnapshot deep-copies the durable slice of routing state —
// placements, replicas, drain marks — for checkpointing.
func (rt *routingTable) routeSnapshot() (placements map[string][]string, replicas map[string]int, draining []string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	placements = make(map[string][]string, len(rt.placements))
	for id, tms := range rt.placements {
		placements[id] = append([]string(nil), tms...)
	}
	replicas = make(map[string]int, len(rt.replicas))
	for id, n := range rt.replicas {
		replicas[id] = n
	}
	for id := range rt.draining {
		draining = append(draining, id)
	}
	return placements, replicas, draining
}

// restore installs snapshot state: placements and replicas are replaced
// wholesale, drain marks are added (a mark set since the snapshot was
// cut must survive the restore). Restored placements are kept verbatim
// — at the usual boot-time restore no TM has registered yet, so
// filtering here would drop every placement; pick ignores entries
// naming unregistered TMs at routing time instead.
func (rt *routingTable) restore(placements map[string][]string, replicas map[string]int, draining []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.placements = make(map[string][]string, len(placements))
	for id, tms := range placements {
		rt.placements[id] = tms
	}
	rt.replicas = make(map[string]int, len(replicas))
	for id, n := range replicas {
		rt.replicas[id] = n
	}
	for _, id := range draining {
		rt.draining[id] = struct{}{}
	}
}

// --- locked helpers ----------------------------------------------------------

// routableLocked filters ids to TMs routing may select: registered, not
// draining, and not on the caller's exclusion list. Caller holds rt.mu.
func (rt *routingTable) routableLocked(ids, excluded []string) []string {
	out := make([]string, 0, len(ids))
next:
	for _, id := range rt.registeredLocked(ids) {
		if _, draining := rt.draining[id]; draining {
			continue
		}
		for _, ex := range excluded {
			if id == ex {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

// registeredLocked filters ids to those currently registered. Caller
// holds rt.mu.
func (rt *routingTable) registeredLocked(ids []string) []string {
	registered := make([]string, 0, len(ids))
	for _, id := range ids {
		for _, known := range rt.tms {
			if id == known {
				registered = append(registered, id)
				break
			}
		}
	}
	return registered
}

// liveLocked filters candidates by heartbeat freshness; with liveness
// disabled (staleAfter <= 0) every candidate passes. Caller holds
// rt.mu.
func (rt *routingTable) liveLocked(candidates []string, now time.Time, staleAfter time.Duration) []string {
	if staleAfter <= 0 {
		return candidates
	}
	cutoff := now.Add(-staleAfter)
	live := make([]string, 0, len(candidates))
	for _, id := range candidates {
		if seen, ok := rt.seen[id]; ok && seen.After(cutoff) {
			live = append(live, id)
		}
	}
	return live
}

// leastLoadedLocked picks the candidate with the fewest in-flight
// dispatches, breaking ties round-robin (shared with every routing
// decision so policies cannot diverge). Caller holds rt.mu for writing
// (the tie-break counter advances).
func (rt *routingTable) leastLoadedLocked(candidates []string) (string, bool) {
	if len(candidates) == 0 {
		return "", false
	}
	minLoad := -1
	var tied []string
	for _, id := range candidates {
		switch load := rt.inflight[id]; {
		case minLoad < 0 || load < minLoad:
			minLoad = load
			tied = tied[:0]
			tied = append(tied, id)
		case load == minLoad:
			tied = append(tied, id)
		}
	}
	tm := tied[rt.rr%len(tied)]
	rt.rr++
	return tm, true
}

// addPlacementLocked appends a placement if absent. Caller holds rt.mu
// for writing.
func (rt *routingTable) addPlacementLocked(servableID, tmID string) {
	for _, id := range rt.placements[servableID] {
		if id == tmID {
			return
		}
	}
	rt.placements[servableID] = append(rt.placements[servableID], tmID)
}

// removePlacementLocked is removePlacement with rt.mu already held for
// writing (the deregistration path batches many removals).
func (rt *routingTable) removePlacementLocked(servableID, tmID string) bool {
	placed := rt.placements[servableID]
	for i, p := range placed {
		if p == tmID {
			rt.placements[servableID] = append(placed[:i], placed[i+1:]...)
			if len(rt.placements[servableID]) == 0 {
				delete(rt.placements, servableID)
			}
			return true
		}
	}
	return false
}
