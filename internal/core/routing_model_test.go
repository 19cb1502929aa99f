package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/auth"
)

// Model-based test of the routing table (ROADMAP item 4): a seeded
// random sequence of its operations runs against the table and against
// a plain-map model that is obviously right because it shares no
// structure with it. After every step each routing decision and every
// readable count must agree with the model; at the end everything
// released must leave the table's servable records literally empty and
// every tenant's reservations at zero (a tenant record keeps its
// cumulative admission counters).

type modelTM struct {
	id         string
	registered bool
	seen       time.Time
	draining   bool
	inflight   int
}

type modelServable struct {
	placements []string
	replicas   int
	inflight   int
	reserved   int
}

type modelCharge struct {
	ref    dispatchRef
	tm     *modelTM // nil when the TM was unknown at charge time
	sv     string
	weight int
	fired  *bool // the cancel func ran
	want   bool  // ...and whether it should have
}

type modelReservation struct {
	tenant, sv string
	weight     int
}

type routingModel struct {
	t          *testing.T
	rt         *routingTable
	staleAfter time.Duration
	now        time.Time
	tms        map[string]*modelTM
	servables  map[string]*modelServable
	tenants    map[string]*TenantStats
	charges    []*modelCharge
	reserved   []modelReservation
}

func (m *routingModel) live(tm *modelTM) bool {
	return m.staleAfter <= 0 || m.now.Sub(tm.seen) < m.staleAfter
}

func (m *routingModel) routable(tm *modelTM, excluded []string) bool {
	return tm != nil && tm.registered && !tm.draining && !slices.Contains(excluded, tm.id)
}

func (m *routingModel) tenant(tag string) *TenantStats {
	if m.tenants[tag] == nil {
		m.tenants[tag] = &TenantStats{}
	}
	return m.tenants[tag]
}

func (m *routingModel) sv(id string) *modelServable {
	if m.servables[id] == nil {
		m.servables[id] = &modelServable{}
	}
	return m.servables[id]
}

// candidates is pick's contract, restated over the model: the routable
// placement sites when there are any, else every routable TM; live ones
// only.
func (m *routingModel) candidates(servableID string, excluded []string) []*modelTM {
	var placed, all []*modelTM
	for _, id := range m.sv(servableID).placements {
		if tm := m.tms[id]; m.routable(tm, excluded) {
			placed = append(placed, tm)
		}
	}
	for _, tm := range m.tms {
		if m.routable(tm, excluded) {
			all = append(all, tm)
		}
	}
	if len(placed) > 0 {
		all = placed
	}
	return slices.DeleteFunc(all, func(tm *modelTM) bool { return !m.live(tm) })
}

func (m *routingModel) checkPick(servableID string, excluded []string) {
	m.t.Helper()
	cands := m.candidates(servableID, excluded)
	got, err := m.rt.pick(servableID, excluded)
	if len(cands) == 0 {
		if !errors.Is(err, ErrNoTaskManager) {
			m.t.Fatalf("pick(%q, %v) = %q, %v; the model has no candidate", servableID, excluded, got, err)
		}
		return
	}
	if err != nil {
		m.t.Fatalf("pick(%q, %v): %v; the model has %d candidate(s)", servableID, excluded, err, len(cands))
	}
	minLoad := cands[0].inflight
	for _, tm := range cands {
		minLoad = min(minLoad, tm.inflight)
	}
	i := slices.IndexFunc(cands, func(tm *modelTM) bool { return tm.id == got })
	if i < 0 {
		m.t.Fatalf("pick(%q, %v) = %q: not registered, draining, stale or excluded in the model", servableID, excluded, got)
	}
	if cands[i].inflight != minLoad {
		m.t.Fatalf("pick(%q, %v) = %q with %d in flight; a candidate has %d", servableID, excluded, got, cands[i].inflight, minLoad)
	}
}

// checkState compares everything the table lets a caller read.
func (m *routingModel) checkState() {
	m.t.Helper()
	var want fleetView
	for _, tm := range m.tms {
		if tm.draining {
			want.draining = append(want.draining, tm.id)
		}
		if !tm.registered {
			continue
		}
		want.registered = append(want.registered, tm.id)
		if m.live(tm) {
			want.live = append(want.live, tm.id)
		}
	}
	got := m.rt.snapshotTMs()
	for _, ids := range [][]string{want.registered, want.live, want.draining, got.registered, got.live, got.draining} {
		slices.Sort(ids) // the table lists in first-seen order, the model map in none
	}
	if !slices.Equal(got.registered, want.registered) || !slices.Equal(got.live, want.live) || !slices.Equal(got.draining, want.draining) {
		m.t.Fatalf("fleet: table %+v, model %+v", got, want)
	}
	for _, id := range want.registered {
		if got.load[id] != m.tms[id].inflight {
			m.t.Fatalf("TM %s: table has %d in flight, model %d", id, got.load[id], m.tms[id].inflight)
		}
	}
	for id, sv := range m.servables {
		got := modelServable{placements: m.rt.placementsOf(id), replicas: m.rt.replicasOf(id), inflight: m.rt.servableLoad(id)}
		if !slices.Equal(got.placements, sv.placements) || got.replicas != sv.replicas || got.inflight != sv.inflight {
			m.t.Fatalf("servable %s: table %+v, model %+v", id, got, *sv)
		}
	}
	byTenant := m.rt.tenantStats()
	for tenant, want := range m.tenants {
		if got := byTenant[tenantLabel(tenant)]; got != *want {
			m.t.Fatalf("tenant %q: table %+v, model %+v", tenant, got, *want)
		}
	}
	for _, c := range m.charges {
		if *c.fired != c.want {
			m.t.Fatalf("charge on %v: cancel fired = %v, want %v", c.tm, *c.fired, c.want)
		}
	}
}

func (m *routingModel) discharge(i int) {
	c := m.charges[i]
	m.charges = slices.Delete(m.charges, i, i+1)
	m.rt.discharge(c.ref)
	if c.tm != nil {
		c.tm.inflight--
	}
	if c.sv != "" {
		m.sv(c.sv).inflight -= c.weight
	}
}

func (m *routingModel) unreserve(i int) {
	r := m.reserved[i]
	m.reserved = slices.Delete(m.reserved, i, i+1)
	m.rt.unreserve(r.tenant, r.sv, r.weight)
	m.sv(r.sv).reserved -= r.weight
	m.tenant(r.tenant).InFlight -= r.weight
}

func (m *routingModel) dropServable(id string) {
	sv := m.sv(id)
	if got := m.rt.placementsOf(id); !slices.Equal(got, sv.placements) {
		m.t.Fatalf("placementsOf(%s) = %v before dropServable, model placements %v", id, got, sv.placements)
	}
	m.rt.dropServable(id)
	sv.placements, sv.replicas = nil, 0
}

func testRoutingModel(t *testing.T, seed int64, staleAfter time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	m := &routingModel{
		t: t, staleAfter: staleAfter, now: time.Unix(1_700_000_000, 0),
		tms: map[string]*modelTM{}, servables: map[string]*modelServable{}, tenants: map[string]*TenantStats{},
	}
	m.rt = newRoutingTable(staleAfter, func() time.Time { return m.now })
	defer m.rt.stop()

	// A silent TM goes stale within a few "time passes" steps. The window
	// is an hour of the fake clock so that no real timer fires mid-test.
	const staleAfterStep = 35 * time.Minute
	tmIDs := []string{"tm-0", "tm-1", "tm-2", "tm-3", "tm-4"}
	svIDs := []string{"sv-0", "sv-1", "sv-2", "sv-3"}
	tenants := []string{"", "acme", "bg"}
	pickOf := func(ids []string) string { return ids[rng.Intn(len(ids))] }

	for step := 0; step < 4000; step++ {
		tmID, svID := pickOf(tmIDs), pickOf(svIDs)
		switch op := rng.Intn(13); op {
		case 0, 1: // beat
			draining := rng.Intn(8) == 0
			m.rt.beat(tmID, 0, draining)
			tm := m.tms[tmID]
			if tm == nil {
				tm = &modelTM{id: tmID}
				m.tms[tmID] = tm
			}
			tm.registered, tm.seen = true, m.now
			// The rejoin-grace exception is exercised by the lifecycle
			// tests; the model never beats within it (the clock moves
			// past it below whenever a drain mark is cleared).
			tm.draining = tm.draining || draining
		case 2: // time passes; some TMs fall silent
			m.now = m.now.Add(time.Duration(rng.Int63n(int64(staleAfterStep))))
		case 3, 4: // charge
			c := &modelCharge{tm: m.tms[tmID], weight: 1 + rng.Intn(3), fired: new(bool)}
			if rng.Intn(4) > 0 {
				c.sv = svID
			}
			c.want = c.tm == nil || !m.live(c.tm)
			c.ref = m.rt.charge(tmID, c.sv, c.weight, func(error) { *c.fired = true })
			if c.tm != nil {
				c.tm.inflight++
			}
			if c.sv != "" {
				m.sv(c.sv).inflight += c.weight
			}
			m.charges = append(m.charges, c)
		case 5, 6: // discharge
			if len(m.charges) > 0 {
				m.discharge(rng.Intn(len(m.charges)))
			}
		case 7: // reserve
			r := modelReservation{tenant: pickOf(tenants), sv: svID, weight: 1 + rng.Intn(3)}
			svBound, tenantBound := rng.Intn(6), rng.Intn(8)
			want, wantPending := admitOK, 0
			if sv := m.sv(svID); svBound > 0 && sv.reserved >= svBound {
				want, wantPending = admitOverloaded, sv.reserved
			} else if n := m.tenant(r.tenant).InFlight; tenantBound > 0 && n >= tenantBound {
				want, wantPending = admitQuota, n
			}
			pending, got := m.rt.reserve(r.tenant, r.sv, r.weight, svBound, auth.Quota{MaxInFlight: tenantBound})
			if got != want || pending != wantPending {
				t.Fatalf("step %d: reserve(%+v, bounds %d/%d) = %d, %v; model %d, %v", step, r, svBound, tenantBound, pending, got, wantPending, want)
			}
			switch tn := m.tenant(r.tenant); got {
			case admitOK:
				m.sv(svID).reserved += r.weight
				tn.InFlight += r.weight
				tn.Admitted++
				m.reserved = append(m.reserved, r)
			case admitOverloaded:
				tn.RejectedOverload++
			case admitQuota:
				tn.RejectedQuota++
			}
		case 8: // unreserve
			if len(m.reserved) > 0 {
				m.unreserve(rng.Intn(len(m.reserved)))
			}
		case 9: // deployable + place / removePlacement
			tm, sv := m.tms[tmID], m.sv(svID)
			if rng.Intn(3) > 0 {
				replicas := 1 + rng.Intn(4)
				err := m.rt.deployable(tmID)
				if ok := m.routable(tm, nil); ok != (err == nil) {
					t.Fatalf("step %d: deployable(%s) = %v; model routable = %v", step, tmID, err, ok)
				}
				if err == nil {
					m.rt.place(svID, tmID, replicas)
					if !slices.Contains(sv.placements, tmID) {
						sv.placements = append(sv.placements, tmID)
					}
					sv.replicas = replicas
				}
			} else {
				i := slices.Index(sv.placements, tmID)
				if got := m.rt.removePlacement(svID, tmID); got != (i >= 0) {
					t.Fatalf("step %d: removePlacement(%s, %s) = %v; model has it = %v", step, svID, tmID, got, i >= 0)
				}
				if i >= 0 {
					sv.placements = slices.Delete(sv.placements, i, i+1)
				}
			}
		case 10: // dropServable
			m.dropServable(svID)
		case 11: // markDraining / clearDrainMark
			if rng.Intn(2) == 0 {
				m.rt.markDraining(tmID)
				if m.tms[tmID] == nil {
					m.tms[tmID] = &modelTM{id: tmID}
				}
				m.tms[tmID].draining = true
			} else {
				m.rt.clearDrainMark(tmID)
				if tm := m.tms[tmID]; tm != nil {
					tm.draining = false
				}
				m.now = m.now.Add(rejoinGrace + time.Millisecond)
			}
		case 12: // deregister
			tm := m.tms[tmID]
			if got := m.rt.deregister(tmID); got != (tm != nil) {
				t.Fatalf("step %d: deregister(%s) = %v; model has a record = %v", step, tmID, got, tm != nil)
			}
			delete(m.tms, tmID)
			for _, sv := range m.servables {
				sv.placements = slices.DeleteFunc(sv.placements, func(id string) bool { return id == tmID })
			}
			// Its waiters are failed now; the dispatches still hold (and
			// will discharge against) the record they charged.
			for _, c := range m.charges {
				if c.tm == tm {
					c.want = true
				}
			}
		}
		m.checkState()
		var excluded []string
		for _, id := range tmIDs {
			if rng.Intn(6) == 0 {
				excluded = append(excluded, id)
			}
		}
		m.checkPick(svID, excluded)
		m.checkPick("", nil)
	}

	// Everything released: the table must drain to nothing.
	for len(m.charges) > 0 {
		m.discharge(0)
	}
	for len(m.reserved) > 0 {
		m.unreserve(0)
	}
	for _, id := range svIDs {
		m.dropServable(id)
	}
	m.checkState()
	for id, n := range m.rt.snapshotTMs().load {
		if n != 0 {
			t.Errorf("TM %s still has %d in flight", id, n)
		}
	}
	if st := m.rt.stats(); st.Waiters != 0 {
		t.Errorf("%d waiters still registered", st.Waiters)
	}
	if !m.rt.reservationsEmpty() {
		t.Error("reservations did not drain to zero")
	}
	m.rt.mu.Lock()
	defer m.rt.mu.Unlock()
	if len(m.rt.servables) != 0 {
		ids := make([]string, 0, len(m.rt.servables))
		for id, sv := range m.rt.servables {
			ids = append(ids, fmt.Sprintf("%s%+v", id, sv))
		}
		slices.Sort(ids)
		t.Errorf("drained table still holds servables %v", ids)
	}
}

func TestRoutingTableAgainstModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d/liveness=on", seed), func(t *testing.T) { testRoutingModel(t, seed, time.Hour) })
		t.Run(fmt.Sprintf("seed=%d/liveness=off", seed), func(t *testing.T) { testRoutingModel(t, seed, 0) })
	}
}
