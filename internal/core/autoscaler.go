package core

import (
	"fmt"
	"log"
	"math"
	"time"
)

// Replica autoscaling. The paper's §V scalability experiment (Fig. 7)
// shows throughput rising with "the number of deployed model replicas",
// but leaves the operator to pick that number by hand via Deploy/Scale.
// The autoscaler closes the loop: a per-servable controller samples the
// demand signal the service already maintains — in-flight dispatches
// (the servable entry's inflight, which spans queue wait + execution, a
// batch weighing its input count) — and drives Scale toward a replica
// target. The controller has no lock or map of its own: its policy and
// state (svScaler) are part of the servable's record in the routing
// table (routing.go), and each tick decides under rt.mu.
//
// The control law is deliberately boring: demand is smoothed with an
// EWMA, the target is ceil(demand / TargetLoad) clamped to
// [MinReplicas, MaxReplicas], scale-ups apply after a short cooldown,
// and scale-downs require the low-demand condition to hold continuously
// for ScaleDownCooldown (hysteresis — a brief lull never sheds
// replicas, so steady load cannot flap).
//
// Admission control is the other half of the contract: scaling takes
// seconds, so when demand outruns even the scaling response the service
// must shed load rather than queue unboundedly. When a servable's
// pending demand reaches its MaxQueue bound, new synchronous runs fail
// fast with ErrOverloaded (HTTP 429) — see Service.admitRun
// (tenancy.go) and routingTable.reserve, which reads the bound from the
// same record and counts the refusal there.

// AutoscalePolicy configures autoscaling for one servable.
type AutoscalePolicy struct {
	// Enabled turns the control loop on for this servable.
	Enabled bool `json:"enabled"`
	// MinReplicas/MaxReplicas bound the controller (defaults 1 / 32).
	MinReplicas int `json:"min_replicas,omitempty"`
	MaxReplicas int `json:"max_replicas,omitempty"`
	// TargetLoad is the per-replica demand (in-flight + queued requests
	// per replica) the controller steers toward (default 2).
	TargetLoad float64 `json:"target_load,omitempty"`
	// ScaleUpCooldown is the minimum gap between scale-ups (default 1s):
	// the previous scale-up must have had a chance to absorb load before
	// the controller adds more replicas.
	ScaleUpCooldown time.Duration `json:"scale_up_cooldown,omitempty"`
	// ScaleDownCooldown is how long demand must stay below target before
	// replicas are removed (default 30s). This is the anti-flap guard:
	// scale-down is slow and deliberate, scale-up fast.
	ScaleDownCooldown time.Duration `json:"scale_down_cooldown,omitempty"`
	// MaxQueue is the admission-control bound: when > 0, synchronous
	// runs fail fast with ErrOverloaded once the servable's pending
	// demand (admitted, not yet answered) reaches it. 0 falls back to the
	// service-wide Config.MaxQueue; < 0 disables admission control for
	// this servable outright.
	MaxQueue int `json:"max_queue,omitempty"`
	// Executor is the route scaled ("parsl" when empty).
	Executor string `json:"executor,omitempty"`
}

func (p AutoscalePolicy) withDefaults() AutoscalePolicy {
	if p.MinReplicas <= 0 {
		p.MinReplicas = 1
	}
	if p.MaxReplicas <= 0 {
		p.MaxReplicas = 32
	}
	if p.TargetLoad <= 0 {
		p.TargetLoad = 2
	}
	if p.ScaleUpCooldown <= 0 {
		p.ScaleUpCooldown = time.Second
	}
	if p.ScaleDownCooldown <= 0 {
		p.ScaleDownCooldown = 30 * time.Second
	}
	if p.Executor == "" {
		p.Executor = "parsl"
	}
	return p
}

// validate rejects inconsistent policies at the API boundary: raw
// negatives first (so they are not silently defaulted away), then the
// min/max relation on the EFFECTIVE policy after withDefaults — an
// explicit min_replicas above the defaulted max of 32 is inconsistent
// too, and would otherwise pin an idle servable at the cap.
func (p AutoscalePolicy) validate() error {
	if p.MinReplicas < 0 || p.MaxReplicas < 0 {
		return ErrBadRequest.WithDetail("autoscale: replica bounds must be non-negative")
	}
	if !(p.TargetLoad >= 0 && p.TargetLoad <= math.MaxFloat64) { // NaN fails both
		return ErrBadRequest.WithDetail("autoscale: target_load must be finite and non-negative")
	}
	eff := p.withDefaults()
	if eff.MinReplicas > eff.MaxReplicas {
		return ErrBadRequest.WithDetail(fmt.Sprintf("autoscale: min_replicas %d > max_replicas %d (defaults: min 1, max 32)", eff.MinReplicas, eff.MaxReplicas))
	}
	return nil
}

// AutoscaleStatus is the externally visible controller state for one
// servable, returned by GET .../autoscale and /api/v2/stats.
type AutoscaleStatus struct {
	Policy AutoscalePolicy `json:"policy"`
	// Replicas is the controller's current replica count (the last
	// value set through Deploy/Scale, autoscaler included).
	Replicas int `json:"replicas"`
	// Demand is the smoothed (EWMA) pending-request signal.
	Demand float64 `json:"demand"`
	// DesiredReplicas is the clamped target the last tick computed.
	DesiredReplicas int `json:"desired_replicas"`
	// ScaleUps/ScaleDowns count applied scaling actions.
	ScaleUps   uint64 `json:"scale_ups"`
	ScaleDowns uint64 `json:"scale_downs"`
	// Rejected counts runs refused by admission control (429s).
	Rejected uint64 `json:"rejected"`
	// LastScale is when the controller last changed the replica count.
	LastScale time.Time `json:"last_scale,omitempty"`
}

// svScaler is one servable's autoscale policy and controller state. It
// lives in the servable's routing-table entry (servableEntry.scale in
// routing.go) and is read and written only under rt.mu, beside the
// entry's in-flight demand and replica count it steers on.
type svScaler struct {
	policy AutoscalePolicy
	// ewma is the smoothed demand signal.
	ewma float64
	// lowSince marks when demand first dropped below the scale-down
	// threshold (zero while demand holds the current scale).
	lowSince   time.Time
	lastScale  time.Time
	scaleUps   uint64
	scaleDowns uint64
	rejected   uint64
	desired    int
	// scaling guards against overlapping Scale dispatches when a scale
	// task outlives a control tick.
	scaling bool
}

// demandEWMAAlpha weights the newest demand sample; ~0.5 tracks load
// ramps within a few ticks while riding out single-tick spikes.
const demandEWMAAlpha = 0.5

// setPolicy installs (or disables) the policy, validated by the caller.
func (st *svScaler) setPolicy(p AutoscalePolicy) {
	st.policy = p.withDefaults()
	st.policy.Enabled = p.Enabled
	// A fresh policy starts a fresh episode: no inherited low-demand
	// timer, no stale smoothed demand from a previous configuration.
	st.lowSince = time.Time{}
	st.ewma = 0
}

// status renders the controller state beside the entry's replica count
// (the last value set through Deploy/Scale). A servable with no state
// reports its replica count alone.
func (st *svScaler) status(replicas int) AutoscaleStatus {
	if st == nil {
		return AutoscaleStatus{Replicas: replicas}
	}
	return AutoscaleStatus{
		Policy:          st.policy,
		Replicas:        replicas,
		Demand:          st.ewma,
		DesiredReplicas: st.desired,
		ScaleUps:        st.scaleUps,
		ScaleDowns:      st.scaleDowns,
		Rejected:        st.rejected,
		LastScale:       st.lastScale,
	}
}

// decide runs one control step from the servable's demand — tasks the
// service is waiting on for it (queue wait + execution, from dispatchTo
// accounting) — and its current replica count. act reports a scale to
// dispatch to target replicas; it sets the scaling latch, which scaled
// clears.
func (st *svScaler) decide(now time.Time, demand, current int) (target int, up, act bool) {
	if !st.policy.Enabled || st.scaling {
		return 0, false, false
	}
	p := st.policy
	if st.ewma == 0 {
		st.ewma = float64(demand)
	} else {
		st.ewma = demandEWMAAlpha*float64(demand) + (1-demandEWMAAlpha)*st.ewma
	}
	if current <= 0 {
		// Never deployed through this service: nothing to scale.
		return 0, false, false
	}
	desired := min(max(int(math.Ceil(st.ewma/p.TargetLoad)), p.MinReplicas), p.MaxReplicas)
	st.desired = desired

	switch {
	case desired > current:
		st.lowSince = time.Time{}
		if now.Sub(st.lastScale) < p.ScaleUpCooldown {
			return 0, false, false
		}
	case desired < current:
		// Hysteresis: demand must stay low for the whole cooldown
		// before any replica is shed.
		if st.lowSince.IsZero() {
			st.lowSince = now
			return 0, false, false
		}
		if now.Sub(st.lowSince) < p.ScaleDownCooldown {
			return 0, false, false
		}
	default:
		st.lowSince = time.Time{}
		return 0, false, false
	}
	st.scaling = true
	return desired, desired > current, true
}

// scaled ends a scale dispatch decide started: the latch clears, and a
// successful one is counted and restarts both cooldown clocks.
func (st *svScaler) scaled(now time.Time, up, ok bool) {
	st.scaling = false
	if !ok {
		return
	}
	st.lastScale = now
	st.lowSince = time.Time{}
	if up {
		st.scaleUps++
	} else {
		st.scaleDowns++
	}
}

// autoscaleLoop is the control loop, one goroutine for the service
// lifetime.
func (s *Service) autoscaleLoop() {
	defer s.regWG.Done()
	ticker := time.NewTicker(s.cfg.AutoscaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.lifeCtx.Done():
			return
		case <-ticker.C:
			s.autoscaleTick()
		}
	}
}

// autoscaleTick runs one control step for every enabled servable. The
// decisions are made under rt.mu; the scale tasks are dispatched
// outside it, since Scale dispatches a task and can take a while. Each
// action finishes by clearing its scaling latch.
func (s *Service) autoscaleTick() {
	for _, act := range s.route.autoscaleTick() {
		go func() {
			err := s.scaleReplicas(s.lifeCtx, act.id, act.replicas, act.executor)
			s.route.scaleDone(act.id, act.up, err == nil)
			if err != nil && s.lifeCtx.Err() == nil {
				log.Printf("core: autoscale %s -> %d replicas failed: %v", act.id, act.replicas, err)
			}
		}()
	}
}

// --- service surface ---------------------------------------------------------

// SetAutoscalePolicy installs an autoscaling policy for a servable the
// caller can see. Disabling (Enabled false) keeps the state visible in
// stats but stops the controller.
func (s *Service) SetAutoscalePolicy(caller Caller, servableID string, p AutoscalePolicy) error {
	rec := recPolicyPut{ID: servableID, Policy: p}
	return s.commit(recKindPolicy, func() (any, error) {
		if _, err := s.Get(caller, servableID); err != nil {
			return nil, err
		}
		return rec, p.validate()
	}, func() { s.applyPolicy(rec) })
}

// AutoscaleStatus reports a servable's autoscaler state. A servable
// with no policy returns a zero-policy status (Enabled false) with the
// current replica count, so GET is always answerable.
func (s *Service) AutoscaleStatus(caller Caller, servableID string) (AutoscaleStatus, error) {
	if _, err := s.Get(caller, servableID); err != nil {
		return AutoscaleStatus{}, err
	}
	st, _ := s.route.autoscaleStatus(servableID)
	return st, nil
}

// AutoscalerStats snapshots every servable with an autoscale policy —
// the /api/v2/stats view.
func (s *Service) AutoscalerStats() map[string]AutoscaleStatus {
	return s.route.autoscaleStats()
}
