package core

// routingTable is the serving-path half of the Management Service's
// state, split out of the repository (PR 8) so routing never contends
// with repository writes. It keeps ONE record per Task Manager —
// registration, heartbeat freshness, load, drain mark, and the
// dispatches waiting on it — and ONE per servable — placements, desired
// replicas, in-flight demand, admission reservations — and ONE per
// tenant — reservations, rate bucket, admission counters — under one
// lock.
//
// Liveness is one predicate, liveLocked: now − seen < staleAfter. Routing
// filters on it, and the same record's timer (one per TM, re-armed by
// each heartbeat) fans errTMLost out to the record's waiters when it
// stops holding — so "is this TM live" cannot be answered two ways.
// Waiting costs O(#TMs) timers, and O(waiters) work only at the moment
// a TM is actually lost.
//
// Lock order: rt.mu is taken with no other lock of the repository's or
// the routing table's held, and routing-table methods never reach the
// repository (rt.mu is private to this file, so that holds by
// construction). Durable routing writes — placements, replicas, drain
// marks, deregistration — are record applies (durable.go) and run under
// commitMu and the WAL's lock, which rank above rt.mu. Waiters' cancel
// funcs fire under rt.mu; they are context cancels and take no lock of
// ours. The hot path — pick, charge/discharge, admission
// reserve/release — therefore only ever takes rt.mu, and a Publish
// cannot stall a single routed run. See docs/ARCHITECTURE.md
// "Concurrency model".
//
// Methods are self-locking; the *Locked helpers at the bottom require
// rt.mu.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/taskmanager"
)

// tmEntry is everything the service knows about one Task Manager.
type tmEntry struct {
	id    string
	queue string // its task queue's name, built once with the record
	// registered is false for a TM known only from durable state — a
	// restored placement or drain mark whose site has not (re-)registered
	// since boot. Such a record is never routed to; its first heartbeat
	// gives it back its placements and its mark.
	registered bool
	// seen is the last registration/heartbeat; the zero time (never seen)
	// fails the liveness predicate.
	seen time.Time
	// active is the executing-task count the TM self-reported in its
	// last heartbeat — the TM-side view of queue depth.
	active int
	// inflight counts dispatched-but-unanswered tasks; pick routes to the
	// least loaded live candidate.
	inflight int
	// draining marks a TM taken out of rotation by DrainTM: it stays
	// registered (heartbeats keep arriving, in-flight work finishes) but
	// no routing decision selects it. Cleared by RejoinTM and deregister.
	draining bool
	// rejoined is when RejoinTM last cleared the drain mark. Heartbeats
	// are set-only for the mark, so a beat marshaled BEFORE the TM
	// acknowledged the rejoin (still carrying Draining=true) could re-mark
	// a freshly rejoined site forever; beat ignores the flag within
	// rejoinGrace of a rejoin. markDraining zeroes it, so a deliberate
	// re-drain is never suppressed.
	rejoined time.Time
	// timer fires staleAfter after the last heartbeat (nil with liveness
	// off); waiters are the cancel funcs of the dispatches it then fails.
	timer   *time.Timer
	waiters map[uint64]context.CancelCauseFunc
}

// routable reports whether routing may select the TM: registered, not
// draining, and not on the caller's exclusion list. Placement entries
// naming unregistered OR draining TMs — snapshot ghosts, sites being
// taken out of rotation — fail it: routing into their queues would
// strand the request until its deadline.
func (tm *tmEntry) routable(excluded []string) bool {
	return tm.registered && !tm.draining && !slices.Contains(excluded, tm.id)
}

// servableEntry is the routing state of one servable. Entries are
// stored by value and deleted when nothing is left in them (putLocked),
// so a fully drained table is literally empty.
type servableEntry struct {
	// placements are the Task Managers hosting the servable, so runs are
	// routed to capable sites (§IV-A: the Management Service "route[s]
	// workloads to suitable executors").
	placements []*tmEntry
	// replicas is the desired replica count, updated by Deploy/Scale —
	// the autoscaler's notion of current scale.
	replicas int
	// inflight counts dispatched-but-unanswered run/batch/pipeline work
	// units (batches weigh their input count) — the demand signal the
	// autoscaler acts on.
	inflight int
	// reserved counts admitted-but-unfinished requests, taken atomically
	// at the admission check so a concurrent burst cannot overrun the
	// servable's MaxQueue bound. Distinct from inflight: a distributed
	// pipeline is admitted under its own ID while its demand lands on
	// its steps.
	reserved int
}

// tenantEntry is one tenant tag's admission state: its reservations,
// its rate-limit token bucket — capacity max(rate, 1), a one-second
// burst — and the admission outcomes /api/v2/stats shows. Entries live
// as long as the service: the counters are cumulative.
type tenantEntry struct {
	reserved int
	tokens   float64
	// last is when the bucket was last refilled; zero until the tenant's
	// first rate-limited admission, which starts the bucket full.
	last time.Time

	admitted, rejectedQuota, rejectedOverload uint64
}

// takeToken refills the bucket by the time elapsed at rate and takes one
// token, reporting false when less than one is left. The rate is read
// from the quota at each admission, so a quota update applies at once.
func (t *tenantEntry) takeToken(rate float64, now time.Time) bool {
	if t.last.IsZero() {
		t.tokens, t.last = rate, now
	}
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens += elapsed * rate
		t.last = now
	}
	t.tokens = min(t.tokens, max(rate, 1))
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

type routingTable struct {
	// staleAfter is the liveness window (<= 0: every registered TM is
	// live and nothing is watched); clock is the service's time source.
	staleAfter time.Duration
	clock      func() time.Time

	mu        sync.Mutex
	tms       []*tmEntry
	servables map[string]servableEntry
	// tenants is the tenant axis of admission, by tenant tag.
	tenants    map[string]*tenantEntry
	rr         int
	nextWaiter uint64
	closed     bool // set by stop: a dispatch charged after it is canceled at once
}

func newRoutingTable(staleAfter time.Duration, clock func() time.Time) *routingTable {
	return &routingTable{
		staleAfter: staleAfter,
		clock:      clock,
		servables:  make(map[string]servableEntry),
		tenants:    make(map[string]*tenantEntry),
	}
}

// beat records one registration/heartbeat: the TM is (re-)registered,
// its freshness stamped and its liveness timer pushed out, its
// self-reported active count stored, and a draining assertion folded in
// under the rejoin-grace rule. A TM that was merely partitioned resumes
// on its next heartbeat.
func (rt *routingTable) beat(tmID string, active int, draining bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.clock()
	tm := rt.ensureTMLocked(tmID)
	tm.registered = true
	tm.seen = now
	tm.active = active
	// The TM asserts it is draining (the drain-task ack echoed in
	// heartbeats). Set-only: a heartbeat without the flag must not clear
	// a service-side drain mark the drain task simply has not reached
	// yet. The one exception is a beat marshaled just BEFORE the TM
	// acknowledged a rejoin — ignore the stale assertion inside the
	// rejoin grace window.
	if draining && (tm.rejoined.IsZero() || now.Sub(tm.rejoined) > rejoinGrace) {
		tm.draining = true
	}
	if rt.staleAfter <= 0 {
		return
	}
	if tm.timer == nil {
		tm.timer = time.AfterFunc(rt.staleAfter, func() { rt.expire(tm) })
	} else {
		tm.timer.Reset(rt.staleAfter)
	}
}

// expire is the timer callback: if the TM truly went silent every
// waiter is canceled with errTMLost; if a beat raced the firing, the
// timer is re-armed for the remaining window.
func (rt *routingTable) expire(tm *tmEntry) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !tm.registered {
		return
	}
	if left := rt.staleAfter - rt.clock().Sub(tm.seen); left > 0 {
		tm.timer.Reset(left)
		return
	}
	failWaitersLocked(tm, errTMLost)
}

// stop is Service shutdown: timers halt, and every waiting dispatch — and
// any charged afterwards — is canceled with no cause (ErrCanceled to its
// caller: the service is closing, no TM was lost).
func (rt *routingTable) stop() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.closed = true
	for _, tm := range rt.tms {
		if tm.timer != nil {
			tm.timer.Stop()
		}
		failWaitersLocked(tm, nil)
	}
}

// fleetView is one consistent reading of every TM record: the registered
// TMs in first-seen order, which of them pass the liveness predicate,
// every drain mark (a recovered mark may name a TM that has not
// registered yet), and the registered TMs' in-flight dispatch counts and
// self-reported executing-task counts.
type fleetView struct {
	registered, live, draining []string
	load, active               map[string]int
}

// snapshotTMs is the one view of the fleet that every TM accessor and
// GET /api/v2/tms read.
func (rt *routingTable) snapshotTMs() fleetView {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.clock()
	v := fleetView{
		registered: []string{}, live: []string{}, draining: []string{},
		load: make(map[string]int, len(rt.tms)), active: make(map[string]int, len(rt.tms)),
	}
	for _, tm := range rt.tms {
		if tm.draining {
			v.draining = append(v.draining, tm.id)
		}
		if !tm.registered {
			continue
		}
		v.registered = append(v.registered, tm.id)
		if rt.liveLocked(tm, now) {
			v.live = append(v.live, tm.id)
		}
		v.load[tm.id], v.active[tm.id] = tm.inflight, tm.active
	}
	return v
}

// state reports whether the table has a record of a TM, whether it is
// registered and whether it is marked draining.
func (rt *routingTable) state(tmID string) (known, registered, draining bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if tm := rt.tmLocked(tmID); tm != nil {
		return true, tm.registered, tm.draining
	}
	return false, false, false
}

// markDraining sets a TM's drain mark (the drain record's apply; at boot
// the TM has usually not registered yet). A deliberate (re-)drain must
// never be suppressed by the rejoin grace window, so the grace stamp is
// cleared too.
func (rt *routingTable) markDraining(tmID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tm := rt.ensureTMLocked(tmID)
	tm.draining = true
	tm.rejoined = time.Time{}
}

// clearDrainMark drops a TM's drain mark and stamps the rejoin-grace
// window (the rejoin record's apply).
func (rt *routingTable) clearDrainMark(tmID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if tm := rt.tmLocked(tmID); tm != nil {
		tm.draining = false
		tm.rejoined = rt.clock()
	}
}

// deregister forgets a TM: its record, every placement naming it and its
// liveness timer go, and dispatches still waiting on it get errTMLost
// NOW — no heartbeat deadline remains to wait out. Reports whether there
// was a record; it need not have been registered (WAL replay runs before
// any TM registers, and an operator may remove a recovered site that
// never came back). A later beat starts a fresh record; dispatches still
// holding this one discharge against it harmlessly.
func (rt *routingTable) deregister(tmID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	i := slices.IndexFunc(rt.tms, func(tm *tmEntry) bool { return tm.id == tmID })
	if i < 0 {
		return false
	}
	tm := rt.tms[i]
	rt.tms = slices.Delete(rt.tms, i, i+1)
	tm.registered = false
	if tm.timer != nil {
		tm.timer.Stop()
	}
	failWaitersLocked(tm, errTMLost)
	for id := range rt.servables {
		rt.removePlacementLocked(id, tm)
	}
	return true
}

// pick selects a Task Manager by least outstanding requests: among the
// live candidates (restricted to placement sites when servableID is
// known to be placed), the one with the fewest in-flight dispatches
// wins; ties fall back to round-robin so uniform load still spreads.
// When no placed TM is routable, routing falls back to every routable
// registered TM (a fast task_failed from an undeployed site beats a
// silent hang). excluded is the failover path's exclusion list.
func (rt *routingTable) pick(servableID string, excluded []string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	pool, placed := rt.tms, rt.servables[servableID].placements
	if slices.ContainsFunc(placed, func(tm *tmEntry) bool { return tm.routable(excluded) }) {
		pool = placed
	}
	var buf [8]*tmEntry
	tm := rt.leastLoadedLocked(rt.candidatesLocked(buf[:0], pool, excluded))
	if tm == nil {
		return "", ErrNoTaskManager
	}
	return tm.id, nil
}

// monolithTM returns a routable (registered, not draining), live Task
// Manager hosting EVERY step (least loaded wins, round-robin on ties)
// — the condition for the pipeline TM-local fast path. Any step
// unplaced, or no common routable live site, means the service must
// orchestrate the steps itself.
func (rt *routingTable) monolithTM(steps []string) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var buf [8]*tmEntry
	var common []*tmEntry
	for i, step := range steps {
		placed := rt.servables[step].placements
		if i == 0 {
			common = rt.candidatesLocked(buf[:0], placed, nil)
			continue
		}
		common = slices.DeleteFunc(common, func(tm *tmEntry) bool { return !slices.Contains(placed, tm) })
	}
	tm := rt.leastLoadedLocked(common)
	if tm == nil {
		return "", false
	}
	return tm.id, true
}

// dispatchRef is what charge hands back for discharge to undo.
type dispatchRef struct {
	tm       *tmEntry
	waiter   uint64
	servable string
	weight   int
	queue    string
}

// charge accounts one dispatch, in one critical section: the TM's
// in-flight count rises, weight units of demand land on the servable
// ("" for control-plane kinds, which carry none), and cancel is
// registered to fire with errTMLost when the TM's liveness window lapses
// or it is deregistered (and with no cause at stop). If the TM is not
// live right now — unknown, never seen, silent past the window — cancel
// fires immediately, which is what lets a dispatch routed at a stale
// snapshot fail fast instead of waiting out its deadline. The caller
// must discharge the returned ref when the dispatch ends.
func (rt *routingTable) charge(tmID, servableID string, weight int, cancel context.CancelCauseFunc) dispatchRef {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ref := dispatchRef{tm: rt.tmLocked(tmID), servable: servableID, weight: weight}
	if servableID != "" {
		sv := rt.servables[servableID]
		sv.inflight += weight
		rt.servables[servableID] = sv
	}
	if ref.tm != nil {
		ref.tm.inflight++
		ref.queue = ref.tm.queue
	} else {
		ref.queue = taskmanager.TaskQueue(tmID)
	}
	switch {
	case rt.closed:
		cancel(nil)
	case ref.tm == nil || !rt.liveLocked(ref.tm, rt.clock()):
		cancel(errTMLost)
	default:
		rt.nextWaiter++
		ref.waiter = rt.nextWaiter
		ref.tm.waiters[ref.waiter] = cancel
	}
	return ref
}

// discharge undoes charge: counts fall and the waiter is dropped.
func (rt *routingTable) discharge(ref dispatchRef) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if ref.tm != nil {
		ref.tm.inflight--
		delete(ref.tm.waiters, ref.waiter)
	}
	if ref.servable != "" {
		sv := rt.servables[ref.servable]
		sv.inflight -= ref.weight
		rt.putLocked(ref.servable, sv)
	}
}

// servableLoad reports the in-flight run/batch/pipeline work-unit count
// for one servable — the autoscaler's demand signal.
func (rt *routingTable) servableLoad(servableID string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.servables[servableID].inflight
}

// admitVerdict is reserve's outcome: admitted, or refused by the
// servable's pending bound (overloaded), the tenant's in-flight quota or
// the tenant's rate limit (both quota exceeded).
type admitVerdict int

const (
	admitOK admitVerdict = iota
	admitOverloaded
	admitQuota
	admitRate
)

// reserve is admission control's check-and-reserve, in ONE critical
// section: the servable's pending bound, then the tenant's in-flight
// quota, then its rate bucket (refilled from rt.clock) are checked, and
// only an admission spends a token and takes the reservation — so a
// burst cannot slip past any bound, and a refused request costs its
// tenant nothing. Every attempt is counted on the tenant's record. A
// bound or rate <= 0 is unenforced; the reservation itself is always
// recorded (it is the in-flight accounting for stats and release).
// pending reports the count the refused bound was observed at.
func (rt *routingTable) reserve(tenant, servableID string, weight, svBound int, quota auth.Quota) (pending int, v admitVerdict) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.tenants[tenant]
	if t == nil {
		t = &tenantEntry{}
		rt.tenants[tenant] = t
	}
	sv := rt.servables[servableID]
	switch {
	case svBound > 0 && sv.reserved >= svBound:
		t.rejectedOverload++
		return sv.reserved, admitOverloaded
	case quota.MaxInFlight > 0 && t.reserved >= quota.MaxInFlight:
		t.rejectedQuota++
		return t.reserved, admitQuota
	case quota.RatePerSec > 0 && !t.takeToken(quota.RatePerSec, rt.clock()):
		t.rejectedQuota++
		return 0, admitRate
	}
	t.admitted++
	t.reserved += weight
	sv.reserved += weight
	rt.servables[servableID] = sv
	return 0, admitOK
}

// unreserve releases an admission reservation.
func (rt *routingTable) unreserve(tenant, servableID string, weight int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sv := rt.servables[servableID]
	sv.reserved -= weight
	rt.putLocked(servableID, sv)
	rt.tenants[tenant].reserved -= weight
}

// tenantStats snapshots every tenant's admission counters and
// reservations, keyed by label.
func (rt *routingTable) tenantStats() map[string]TenantStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]TenantStats, len(rt.tenants))
	for tag, t := range rt.tenants {
		out[tenantLabel(tag)] = TenantStats{
			Admitted:         t.admitted,
			RejectedQuota:    t.rejectedQuota,
			RejectedOverload: t.rejectedOverload,
			InFlight:         t.reserved,
		}
	}
	return out
}

// placementsOf reports which TMs host one servable.
func (rt *routingTable) placementsOf(servableID string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return tmIDs(rt.servables[servableID].placements)
}

// heldBy lists the servables with a placement on the given TM — the
// drain migration work list.
func (rt *routingTable) heldBy(tmID string) []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var held []string
	for id, sv := range rt.servables {
		if slices.ContainsFunc(sv.placements, func(tm *tmEntry) bool { return tm.id == tmID }) {
			held = append(held, id)
		}
	}
	return held
}

// hostedElsewhereLive reports whether a servable has a placement on a
// site routing would actually pick: routable AND live. Used by drain
// migration — a stale peer (registered, not draining, heartbeats
// stopped) must not excuse skipping a migration.
func (rt *routingTable) hostedElsewhereLive(servableID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var buf [8]*tmEntry
	return len(rt.candidatesLocked(buf[:0], rt.servables[servableID].placements, nil)) > 0
}

// deployable refuses a deploy's placement on a TM that is no longer
// routable: one that lost the race to a concurrent DrainTM (or a
// deregistration) must not re-grow placement on a site being emptied —
// the drain's migration pass has already run or will never see it.
func (rt *routingTable) deployable(tmID string) error {
	switch _, registered, draining := rt.state(tmID); {
	case !registered:
		return fmt.Errorf("%w: task manager %s deregistered during deploy", ErrConflict, tmID)
	case draining:
		return fmt.Errorf("%w: task manager %s is draining", ErrConflict, tmID)
	}
	return nil
}

// place installs a placement, and the desired replica count when it is
// non-zero. It checks nothing: a deploy is checked before its record is
// committed, and at boot the record's TM has not registered yet.
func (rt *routingTable) place(servableID, tmID string, replicas int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sv := rt.servables[servableID]
	if tm := rt.ensureTMLocked(tmID); !slices.Contains(sv.placements, tm) {
		sv.placements = append(sv.placements, tm)
	}
	if replicas > 0 {
		sv.replicas = replicas
	}
	rt.servables[servableID] = sv
}

// removePlacement drops one (servable, TM) placement entry.
func (rt *routingTable) removePlacement(servableID, tmID string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tm := rt.tmLocked(tmID)
	return tm != nil && rt.removePlacementLocked(servableID, tm)
}

// dropServable removes a servable's placements and replica record
// (Unpublish). Demand and reservations of runs still in flight stay
// until those runs release them.
func (rt *routingTable) dropServable(servableID string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sv := rt.servables[servableID]
	sv.placements, sv.replicas = nil, 0
	rt.putLocked(servableID, sv)
}

// setReplicas records the desired replica count (the scale record's
// apply).
func (rt *routingTable) setReplicas(servableID string, replicas int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	sv := rt.servables[servableID]
	sv.replicas = replicas
	rt.putLocked(servableID, sv)
}

// replicasOf reports the desired replica count (0 when never deployed).
func (rt *routingTable) replicasOf(servableID string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.servables[servableID].replicas
}

// routeSnapshot copies the durable slice of routing state — placements,
// replicas, drain marks (sorted) — for checkpointing.
func (rt *routingTable) routeSnapshot() (placements map[string][]string, replicas map[string]int, draining []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	placements = make(map[string][]string, len(rt.servables))
	replicas = make(map[string]int, len(rt.servables))
	for id, sv := range rt.servables {
		if len(sv.placements) > 0 {
			placements[id] = tmIDs(sv.placements)
		}
		if sv.replicas != 0 {
			replicas[id] = sv.replicas
		}
	}
	for _, tm := range rt.tms {
		if tm.draining {
			draining = append(draining, tm.id)
		}
	}
	slices.Sort(draining)
	return placements, replicas, draining
}

// WatcherStats counts the dead-TM watch's footprint: liveness timers
// and currently registered dispatch waiters. TMs is the number that
// must stay O(#TMs) regardless of in-flight load.
type WatcherStats struct {
	// TMs is the number of TMs with a liveness timer: the registered
	// ones, when liveness is on.
	TMs int `json:"tms"`
	// Waiters is the number of in-flight dispatches registered with a
	// TM's record for the fan-out.
	Waiters int `json:"waiters"`
	// Lost is how many of those TMs currently fail the liveness
	// predicate.
	Lost int `json:"lost"`
}

// stats snapshots the watch's footprint.
func (rt *routingTable) stats() WatcherStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.clock()
	var st WatcherStats
	for _, tm := range rt.tms {
		st.Waiters += len(tm.waiters)
		if tm.timer == nil {
			continue
		}
		st.TMs++
		if !rt.liveLocked(tm, now) {
			st.Lost++
		}
	}
	return st
}

// --- locked helpers ----------------------------------------------------------

// liveLocked is THE liveness predicate: a heartbeat arrived within the
// window. With liveness disabled (staleAfter <= 0) every TM passes.
func (rt *routingTable) liveLocked(tm *tmEntry, now time.Time) bool {
	return rt.staleAfter <= 0 || now.Sub(tm.seen) < rt.staleAfter
}

// candidatesLocked appends to dst the TMs of pool a routing decision
// may select: routable and live. Callers pass a stack buffer, so a
// decision over up to its length allocates nothing.
func (rt *routingTable) candidatesLocked(dst, pool []*tmEntry, excluded []string) []*tmEntry {
	now := rt.clock()
	for _, tm := range pool {
		if tm.routable(excluded) && rt.liveLocked(tm, now) {
			dst = append(dst, tm)
		}
	}
	return dst
}

// leastLoadedLocked picks the candidate with the fewest in-flight
// dispatches, breaking ties round-robin (shared with every routing
// decision so policies cannot diverge): one pass finds the minimum and
// how many share it, a second takes the rr-th of those. Nil when there
// are no candidates.
func (rt *routingTable) leastLoadedLocked(candidates []*tmEntry) *tmEntry {
	if len(candidates) == 0 {
		return nil
	}
	minLoad, tied := candidates[0].inflight, 0
	for _, tm := range candidates {
		switch {
		case tm.inflight < minLoad:
			minLoad, tied = tm.inflight, 1
		case tm.inflight == minLoad:
			tied++
		}
	}
	nth := rt.rr % tied
	rt.rr++
	for _, tm := range candidates {
		if tm.inflight == minLoad {
			if nth == 0 {
				return tm
			}
			nth--
		}
	}
	return nil // unreachable: tied counts the matches of the second pass
}

// tmLocked finds a TM's record (nil when there is none).
func (rt *routingTable) tmLocked(tmID string) *tmEntry {
	for _, tm := range rt.tms {
		if tm.id == tmID {
			return tm
		}
	}
	return nil
}

// ensureTMLocked finds or starts a TM's record.
func (rt *routingTable) ensureTMLocked(tmID string) *tmEntry {
	tm := rt.tmLocked(tmID)
	if tm == nil {
		tm = &tmEntry{id: tmID, queue: taskmanager.TaskQueue(tmID), waiters: make(map[uint64]context.CancelCauseFunc)}
		rt.tms = append(rt.tms, tm)
	}
	return tm
}

// failWaitersLocked cancels every dispatch waiting on the TM with cause.
// Canceled waiters are dropped now rather than at each dispatch's
// discharge: the map is what stats reports, and a second fan-out must not
// re-cancel them.
func failWaitersLocked(tm *tmEntry, cause error) {
	for _, cancel := range tm.waiters {
		cancel(cause)
	}
	clear(tm.waiters)
}

// putLocked stores a servable's entry, or deletes it once nothing is
// left in it.
func (rt *routingTable) putLocked(servableID string, sv servableEntry) {
	if len(sv.placements) == 0 && sv.replicas == 0 && sv.inflight == 0 && sv.reserved == 0 {
		delete(rt.servables, servableID)
		return
	}
	rt.servables[servableID] = sv
}

// removePlacementLocked drops tm from a servable's placements, reporting
// whether it was there.
func (rt *routingTable) removePlacementLocked(servableID string, tm *tmEntry) bool {
	sv := rt.servables[servableID]
	i := slices.Index(sv.placements, tm)
	if i < 0 {
		return false
	}
	sv.placements = slices.Delete(sv.placements, i, i+1)
	rt.putLocked(servableID, sv)
	return true
}

// tmIDs lists the IDs of tms (non-nil even when empty).
func tmIDs(tms []*tmEntry) []string {
	ids := make([]string, len(tms))
	for i, tm := range tms {
		ids[i] = tm.id
	}
	return ids
}
