package core

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"
)

// Replica autoscaling. The paper's §V scalability experiment (Fig. 7)
// shows throughput rising with "the number of deployed model replicas",
// but leaves the operator to pick that number by hand via Deploy/Scale.
// The autoscaler closes the loop: a per-servable controller samples the
// demand signal the service already maintains — in-flight dispatches
// (ServableLoad, which spans queue wait + execution, a batch weighing
// its input count) — and drives Scale toward a replica target.
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
// (tenancy.go).

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

// svScaler is the per-servable controller state.
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

// autoscaler runs the control loop over all enabled servables.
type autoscaler struct {
	svc      *Service
	interval time.Duration

	mu  sync.Mutex
	svs map[string]*svScaler
}

// demandEWMAAlpha weights the newest demand sample; ~0.5 tracks load
// ramps within a few ticks while riding out single-tick spikes.
const demandEWMAAlpha = 0.5

func newAutoscaler(svc *Service, interval time.Duration) *autoscaler {
	if interval <= 0 {
		interval = time.Second
	}
	return &autoscaler{svc: svc, interval: interval, svs: make(map[string]*svScaler)}
}

// setPolicy installs (or disables) a servable's policy, validated by
// the caller.
func (a *autoscaler) setPolicy(servableID string, p AutoscalePolicy) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.svs[servableID]
	if st == nil {
		st = &svScaler{}
		a.svs[servableID] = st
	}
	st.policy = p.withDefaults()
	st.policy.Enabled = p.Enabled
	// A fresh policy starts a fresh episode: no inherited low-demand
	// timer, no stale smoothed demand from a previous configuration.
	st.lowSince = time.Time{}
	st.ewma = 0
}

// policies snapshots the installed policies for persistence
// (the checkpoint and StateFingerprint). Entries that exist only
// as rejection counters (zero policy, never set) are skipped — they
// are stats, not configuration.
func (a *autoscaler) policies() map[string]AutoscalePolicy {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.svs) == 0 {
		return nil
	}
	out := make(map[string]AutoscalePolicy, len(a.svs))
	for id, st := range a.svs {
		if st.policy == (AutoscalePolicy{}) {
			continue
		}
		out[id] = st.policy
	}
	return out
}

// removePolicy drops a servable's controller state entirely — the
// Unpublish hook. A scale task already in flight finishes on its own;
// its completion callback tolerates the missing entry.
func (a *autoscaler) removePolicy(servableID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.svs, servableID)
}

// status snapshots one servable's controller state (ok false when no
// policy was ever set).
func (a *autoscaler) status(servableID string) (AutoscaleStatus, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.svs[servableID]
	if !ok {
		return AutoscaleStatus{}, false
	}
	return a.statusLocked(servableID, st), true
}

func (a *autoscaler) statusLocked(servableID string, st *svScaler) AutoscaleStatus {
	return AutoscaleStatus{
		Policy:          st.policy,
		Replicas:        a.svc.DesiredReplicas(servableID),
		Demand:          st.ewma,
		DesiredReplicas: st.desired,
		ScaleUps:        st.scaleUps,
		ScaleDowns:      st.scaleDowns,
		Rejected:        st.rejected,
		LastScale:       st.lastScale,
	}
}

// all snapshots every servable with a policy.
func (a *autoscaler) all() map[string]AutoscaleStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]AutoscaleStatus, len(a.svs))
	for id, st := range a.svs {
		out[id] = a.statusLocked(id, st)
	}
	return out
}

// maxQueue resolves the admission bound for a servable: the policy's
// MaxQueue when set, else the service default; negative disables.
func (a *autoscaler) maxQueue(servableID string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if st, ok := a.svs[servableID]; ok && st.policy.MaxQueue != 0 {
		return st.policy.MaxQueue
	}
	return a.svc.cfg.MaxQueue
}

// noteRejection counts an admission-control rejection for stats.
func (a *autoscaler) noteRejection(servableID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.svs[servableID]
	if st == nil {
		st = &svScaler{}
		a.svs[servableID] = st
	}
	st.rejected++
}

// loop is the control loop, one goroutine for the service lifetime.
func (a *autoscaler) loop() {
	defer a.svc.regWG.Done()
	ticker := time.NewTicker(a.interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.svc.stop:
			return
		case <-ticker.C:
			a.tick()
		}
	}
}

// tick runs one control step for every enabled servable.
func (a *autoscaler) tick() {
	now := a.svc.timeFunc()
	type action struct {
		id       string
		replicas int
		executor string
		up       bool
	}
	var actions []action

	a.mu.Lock()
	for id, st := range a.svs {
		if !st.policy.Enabled || st.scaling {
			continue
		}
		p := st.policy
		// Demand = tasks this service is waiting on for the servable
		// (queue wait + execution, from dispatchTo accounting).
		demand := float64(a.svc.ServableLoad(id))
		if st.ewma == 0 {
			st.ewma = demand
		} else {
			st.ewma = demandEWMAAlpha*demand + (1-demandEWMAAlpha)*st.ewma
		}

		current := a.svc.DesiredReplicas(id)
		if current <= 0 {
			// Never deployed through this service: nothing to scale.
			continue
		}
		desired := int(math.Ceil(st.ewma / p.TargetLoad))
		if desired < p.MinReplicas {
			desired = p.MinReplicas
		}
		if desired > p.MaxReplicas {
			desired = p.MaxReplicas
		}
		st.desired = desired

		switch {
		case desired > current:
			st.lowSince = time.Time{}
			if now.Sub(st.lastScale) < p.ScaleUpCooldown {
				continue
			}
			st.scaling = true
			actions = append(actions, action{id: id, replicas: desired, executor: p.Executor, up: true})
		case desired < current:
			// Hysteresis: demand must stay low for the whole cooldown
			// before any replica is shed.
			if st.lowSince.IsZero() {
				st.lowSince = now
				continue
			}
			if now.Sub(st.lowSince) < p.ScaleDownCooldown {
				continue
			}
			st.scaling = true
			actions = append(actions, action{id: id, replicas: desired, executor: p.Executor, up: false})
		default:
			st.lowSince = time.Time{}
		}
	}
	a.mu.Unlock()

	// Apply outside the lock: Scale dispatches a task and can take a
	// while. Each action finishes by clearing its scaling latch.
	for _, act := range actions {
		act := act
		go func() {
			err := a.svc.scaleReplicas(a.svc.lifeCtx, act.id, act.replicas, act.executor)
			a.mu.Lock()
			st := a.svs[act.id]
			if st != nil {
				st.scaling = false
				if err == nil {
					st.lastScale = a.svc.timeFunc()
					st.lowSince = time.Time{}
					if act.up {
						st.scaleUps++
					} else {
						st.scaleDowns++
					}
				}
			}
			a.mu.Unlock()
			if err != nil && a.svc.lifeCtx.Err() == nil {
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
	if st, ok := s.scaler.status(servableID); ok {
		return st, nil
	}
	return AutoscaleStatus{Replicas: s.DesiredReplicas(servableID)}, nil
}

// AutoscalerStats snapshots every servable with an autoscale policy —
// the /api/v2/stats view.
func (s *Service) AutoscalerStats() map[string]AutoscaleStatus {
	return s.scaler.all()
}
