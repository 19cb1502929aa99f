// Package scenario is the declarative benchmark harness: YAML workload
// specs — staged load shapes, input-key distributions (including
// hot-key Zipf skew), multi-site topologies with netsim WAN shaping,
// scripted fault events (kill -9, drain, rejoin, restart) and
// assertion blocks — compiled into a deterministic, seeded schedule
// and executed against an in-process bench.Testbed. Results are
// written as BENCH_<name>.json through the shared bench.Report writer
// and committed per PR, so the repo carries its own performance
// trajectory instead of leaving it to CI artifacts.
//
// The shape follows benchctl (see SNIPPETS.md): named stages, run
// metadata rich enough to reproduce a run exactly, machine-checkable
// pass/fail. See docs/BENCH.md for the schema and conventions.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Duration is a time.Duration that marshals as its String() form, so
// the spec echoed into BENCH_*.json stays human-readable ("150ms", not
// 150000000).
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// D is the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is one parsed scenario.
type Spec struct {
	// Name names the scenario; the result file is BENCH_<name>.json.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random choice in the workload schedule; same
	// spec + same seed = identical schedule (default 42).
	Seed     int64        `json:"seed"`
	Topology TopologySpec `json:"topology"`
	Service  ServiceSpec  `json:"service"`
	Workload WorkloadSpec `json:"workload"`
	// Tenants declares the workload's tenant mix: each scheduled
	// request is tagged with a tenant drawn from these shares (the
	// uncovered remainder stays anonymous), and each tenant's quota is
	// installed on the service before the measured window.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Auth runs the scenario authenticated: the service requires bearer
	// tokens, one user per tenant is registered and logged in before
	// the measured window, and every tagged request resolves its caller
	// from that tenant's token (untagged remainder requests stay on the
	// internal anonymous path). Requires a tenants block.
	Auth   bool        `json:"auth,omitempty"`
	Stages []StageSpec `json:"stages"`
	Faults []FaultSpec `json:"faults,omitempty"`
	// Assertions hold machine-checked bounds on the run's totals,
	// sorted by name for stable output.
	Assertions []Assertion `json:"assertions,omitempty"`
}

// TopologySpec shapes the deployment.
type TopologySpec struct {
	// TMs is the number of Task Manager sites (default 1); sites are
	// named cooley-tm-1..N, the IDs fault events address by index.
	TMs int `json:"tms"`
	// WAN applies the paper's measured 20.7 ms RTT shaping between the
	// Management Service and every TM site.
	WAN bool `json:"wan"`
	// Nodes is the per-extra-site cluster size (default 4).
	Nodes int `json:"nodes"`
	// Heartbeat is the TM heartbeat interval; defaults to
	// tm_stale_after/4 when liveness is on, else off.
	Heartbeat Duration `json:"heartbeat"`
}

// ServiceSpec tunes the Management Service under test.
type ServiceSpec struct {
	// Cache enables the service-layer result cache.
	Cache bool `json:"cache"`
	// MaxQueue is the admission-control bound (0 = unbounded).
	MaxQueue int `json:"max_queue"`
	// TMStaleAfter enables the liveness window + dead-TM watchdog.
	TMStaleAfter Duration `json:"tm_stale_after"`
	// FailoverRetries bounds re-dispatches per request (0 = default 2).
	FailoverRetries int `json:"failover_retries"`
	// AutoscaleInterval overrides the autoscaler tick (0 = default 1s).
	AutoscaleInterval Duration `json:"autoscale_interval"`
}

// WorkloadSpec describes what the clients send.
type WorkloadSpec struct {
	// Kind is run | run_batch | pipeline.
	Kind string `json:"kind"`
	// Servable is the workload body: "synthetic" (a scenario-registered
	// python_function holding its pod for Work per request, output
	// keyed by input — cacheable), or "matminer" (the two-step parse →
	// featurize pipeline over formula strings; requires kind pipeline).
	Servable string `json:"servable"`
	// Work is the synthetic servable's per-request service time.
	Work Duration `json:"work"`
	// Placements deploys the servable (or every pipeline step) on the
	// first N sites (default 1; capped at topology.tms).
	Placements int `json:"placements"`
	// Disjoint places pipeline steps round-robin on DISTINCT sites
	// instead of everywhere — forces the distributed engine.
	Disjoint bool `json:"disjoint,omitempty"`
	// Replicas per placement (default 2).
	Replicas int `json:"replicas"`
	// Clients is the concurrent request-worker count (default 8).
	Clients int `json:"clients"`
	// KeySpace is the number of distinct input keys (default 16).
	KeySpace int `json:"key_space"`
	// Distribution picks keys: uniform | zipf | unique (unique = every
	// request a never-before-seen key; maximally cache-hostile).
	Distribution string `json:"distribution"`
	// ZipfS is the Zipf skew exponent (> 1; default 1.2).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// BatchSize is the inputs per run_batch request (default 8).
	BatchSize int `json:"batch_size,omitempty"`
	// NoCache bypasses the result cache per request (X-DLHub-Cache
	// bypass), isolating serving latency from memoization.
	NoCache bool `json:"no_cache,omitempty"`
}

// StageSpec is one load stage; stages run back to back.
type StageSpec struct {
	Name string `json:"name"`
	// Kind is steady | ramp | spike | saturation. steady spaces requests
	// evenly at Rate; ramp moves linearly from StartRate to Rate across
	// the stage; spike injects the stage's requests in four bursts;
	// saturation binary-searches the sustainable req/s ceiling between
	// StartRate and Rate, running one steady probe of Duration per step.
	Kind     string   `json:"kind"`
	Duration Duration `json:"duration"`
	// Rate is the target req/s (the END rate for ramp, the search upper
	// bound for saturation).
	Rate float64 `json:"rate"`
	// StartRate is ramp's starting req/s (default 0) and saturation's
	// search lower bound (required > 0 there).
	StartRate float64 `json:"start_rate,omitempty"`
	// Probes is the number of binary-search steps a saturation stage
	// runs (default 6; each probe holds Duration of load).
	Probes int `json:"probes,omitempty"`
}

// FaultSpec schedules one fault event relative to run start.
type FaultSpec struct {
	At Duration `json:"at"`
	// Kind is kill (kill -9 the TM process; its pods survive), restart
	// (new TM process reattaches to the site), drain (graceful
	// out-of-rotation, placements migrate), rejoin (drained TM returns
	// to rotation), or restart_ms (kill -9 the Management Service and
	// boot a fresh one over the same durable store; recovery must
	// reproduce the pre-kill state exactly or the fault fails).
	Kind string `json:"kind"`
	// TM is the 1-based site index the fault targets (not set for
	// restart_ms, which targets the Management Service).
	TM int `json:"tm"`
	// Redeploy re-deploys the workload servables onto the site after a
	// rejoin/restart, so it takes placed traffic again (a drain
	// migrated its placements away).
	Redeploy bool `json:"redeploy,omitempty"`
}

// TenantSpec declares one tenant in the workload mix.
type TenantSpec struct {
	// ID tags the tenant's requests on the data plane ("anonymous" is
	// reserved for the untagged remainder).
	ID string `json:"id"`
	// Share is the tenant's fraction of scheduled requests, in (0, 1];
	// shares may sum to < 1 and the remainder stays anonymous.
	Share float64 `json:"share"`
	// Priority is the dequeue-weight class: high | normal | low
	// (default normal).
	Priority string `json:"priority,omitempty"`
	// MaxInFlight caps the tenant's concurrently admitted runs
	// (0 = unlimited). Admissions beyond it reject with quota_exceeded.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// RatePerSec caps the tenant's admissions per second with a
	// one-second burst (0 = unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
}

// Assertion is one machine-checked bound on the run's totals. The
// min_/max_ prefix of the name encodes the comparison direction; a
// ".<tenant-id>" suffix scopes the bound to one tenant's slice of the
// run (e.g. "max_p99_ms.bg").
type Assertion struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// assertionNames enumerates the known assertion keys and whether their
// value is a fraction (bounded to [0,1]).
var assertionNames = map[string]struct{ fraction bool }{
	"max_error_rate":          {fraction: true},
	"min_cache_hit_rate":      {fraction: true},
	"max_cache_hit_rate":      {fraction: true},
	"min_throughput":          {},
	"max_p99_ms":              {},
	"min_redispatched":        {},
	"min_requests":            {},
	"min_saturation_rps":      {},
	"min_quota_rejections":    {},
	"max_quota_rejections":    {},
	"max_overload_rejections": {},
}

// perTenantAssertions lists the bases that accept a ".<tenant-id>"
// qualifier; the rest are whole-run observables (cache, saturation,
// failover) that have no per-tenant slice.
var perTenantAssertions = map[string]bool{
	"max_error_rate":          true,
	"max_p99_ms":              true,
	"min_requests":            true,
	"min_throughput":          true,
	"min_quota_rejections":    true,
	"max_quota_rejections":    true,
	"max_overload_rejections": true,
}

// splitAssertion splits a possibly tenant-qualified assertion name
// into its base and tenant ("" when unqualified).
func splitAssertion(name string) (base, tenant string) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// TMID names a 1-based site index the way the testbed does.
func TMID(i int) string { return fmt.Sprintf("cooley-tm-%d", i) }

// Parse parses and validates a scenario spec from YAML bytes.
func Parse(data []byte) (*Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	spec, err := decodeSpec(root)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Compressed returns a copy with stage durations and fault offsets
// divided by factor (rates untouched, so total request counts shrink
// with the wall time) — how CI runs committed scenarios at reduced
// scale.
func (s *Spec) Compressed(factor float64) *Spec {
	if factor <= 1 {
		return s
	}
	c := *s
	c.Stages = append([]StageSpec(nil), s.Stages...)
	for i := range c.Stages {
		c.Stages[i].Duration = Duration(float64(c.Stages[i].Duration) / factor)
	}
	c.Faults = append([]FaultSpec(nil), s.Faults...)
	for i := range c.Faults {
		c.Faults[i].At = Duration(float64(c.Faults[i].At) / factor)
	}
	return &c
}

// SaturationStage returns the spec's saturation stage, if any (Validate
// guarantees it is then the only stage).
func (s *Spec) SaturationStage() *StageSpec {
	if len(s.Stages) == 1 && s.Stages[0].Kind == "saturation" {
		return &s.Stages[0]
	}
	return nil
}

// HasFault reports whether any fault event has the given kind.
func (s *Spec) HasFault(kind string) bool {
	for _, f := range s.Faults {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// TotalDuration sums the stage durations.
func (s *Spec) TotalDuration() time.Duration {
	var total time.Duration
	for _, st := range s.Stages {
		total += st.Duration.D()
	}
	return total
}

// Validate checks the spec's internal consistency; the error names the
// offending field.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	for _, r := range s.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("scenario: name %q: use lowercase letters, digits, - and _ (it names BENCH_<name>.json)", s.Name)
		}
	}
	if s.Topology.TMs < 1 {
		return fmt.Errorf("scenario %s: topology.tms must be >= 1, got %d", s.Name, s.Topology.TMs)
	}
	if s.Service.TMStaleAfter < 0 {
		return fmt.Errorf("scenario %s: service.tm_stale_after must be >= 0", s.Name)
	}
	switch s.Workload.Kind {
	case "run", "run_batch", "pipeline":
	default:
		return fmt.Errorf("scenario %s: workload.kind %q (want run, run_batch or pipeline)", s.Name, s.Workload.Kind)
	}
	switch s.Workload.Servable {
	case "synthetic":
		if s.Workload.Kind == "pipeline" {
			return fmt.Errorf("scenario %s: workload.servable synthetic cannot serve kind pipeline (use matminer)", s.Name)
		}
	case "matminer":
		if s.Workload.Kind != "pipeline" {
			return fmt.Errorf("scenario %s: workload.servable matminer requires kind pipeline", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: workload.servable %q (want synthetic or matminer)", s.Name, s.Workload.Servable)
	}
	if s.Workload.Work < 0 {
		return fmt.Errorf("scenario %s: workload.work must be >= 0", s.Name)
	}
	if s.Workload.Placements < 1 || s.Workload.Placements > s.Topology.TMs {
		return fmt.Errorf("scenario %s: workload.placements %d out of range [1, topology.tms=%d]", s.Name, s.Workload.Placements, s.Topology.TMs)
	}
	if s.Workload.Replicas < 1 {
		return fmt.Errorf("scenario %s: workload.replicas must be >= 1", s.Name)
	}
	if s.Workload.Clients < 1 {
		return fmt.Errorf("scenario %s: workload.clients must be >= 1", s.Name)
	}
	if s.Workload.KeySpace < 1 {
		return fmt.Errorf("scenario %s: workload.key_space must be >= 1", s.Name)
	}
	switch s.Workload.Distribution {
	case "uniform", "unique":
	case "zipf":
		if s.Workload.ZipfS <= 1 {
			return fmt.Errorf("scenario %s: workload.zipf_s must be > 1 for the zipf distribution, got %g", s.Name, s.Workload.ZipfS)
		}
	default:
		return fmt.Errorf("scenario %s: workload.distribution %q (want uniform, zipf or unique)", s.Name, s.Workload.Distribution)
	}
	if s.Workload.Kind == "run_batch" && s.Workload.BatchSize < 1 {
		return fmt.Errorf("scenario %s: workload.batch_size must be >= 1 for run_batch", s.Name)
	}
	tenantIDs := map[string]bool{}
	var shareSum float64
	for i, t := range s.Tenants {
		if t.ID == "" {
			return fmt.Errorf("scenario %s: tenants[%d]: id is required", s.Name, i)
		}
		if t.ID == "anonymous" {
			return fmt.Errorf("scenario %s: tenants[%d]: id %q is reserved for the untagged remainder", s.Name, i, t.ID)
		}
		if tenantIDs[t.ID] {
			return fmt.Errorf("scenario %s: duplicate tenant id %q", s.Name, t.ID)
		}
		tenantIDs[t.ID] = true
		if t.Share <= 0 || t.Share > 1 {
			return fmt.Errorf("scenario %s: tenant %s: share must be in (0, 1], got %g", s.Name, t.ID, t.Share)
		}
		shareSum += t.Share
		switch t.Priority {
		case "", "high", "normal", "low":
		default:
			return fmt.Errorf("scenario %s: tenant %s: priority %q (want high, normal or low)", s.Name, t.ID, t.Priority)
		}
		if t.MaxInFlight < 0 {
			return fmt.Errorf("scenario %s: tenant %s: max_in_flight must be >= 0", s.Name, t.ID)
		}
		if !(t.RatePerSec >= 0 && t.RatePerSec <= math.MaxFloat64) { // NaN fails both
			return fmt.Errorf("scenario %s: tenant %s: rate_per_sec must be >= 0 and finite", s.Name, t.ID)
		}
	}
	if shareSum > 1+1e-9 {
		return fmt.Errorf("scenario %s: tenant shares sum to %g, must be <= 1", s.Name, shareSum)
	}
	// Tenants may combine with restart_ms: quotas are WAL-logged and
	// replayed on recovery, so the assertions stay pinned across the
	// restart. (This combination was rejected before quotas were
	// durable.)
	if s.Auth && len(s.Tenants) == 0 {
		return fmt.Errorf("scenario %s: auth requires a tenants block (the tenant users are what log in)", s.Name)
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("scenario %s: at least one stage is required", s.Name)
	}
	seen := map[string]bool{}
	for i, st := range s.Stages {
		if st.Name == "" {
			return fmt.Errorf("scenario %s: stages[%d]: name is required", s.Name, i)
		}
		if seen[st.Name] {
			return fmt.Errorf("scenario %s: duplicate stage name %q", s.Name, st.Name)
		}
		seen[st.Name] = true
		switch st.Kind {
		case "steady", "spike":
			if st.StartRate != 0 {
				return fmt.Errorf("scenario %s: stage %s: start_rate only applies to ramp and saturation stages", s.Name, st.Name)
			}
		case "ramp":
		case "saturation":
			// A saturation stage owns the whole run: the binary search
			// controls the load itself, so neither other stages nor a
			// fault timeline can share the timeline with it.
			if len(s.Stages) != 1 {
				return fmt.Errorf("scenario %s: a saturation stage must be the only stage", s.Name)
			}
			if len(s.Faults) != 0 {
				return fmt.Errorf("scenario %s: saturation scenarios cannot schedule faults", s.Name)
			}
			if len(s.Tenants) != 0 {
				// Probe load is generated at runtime, not from the
				// pre-compiled schedule the tenant mix is drawn into.
				return fmt.Errorf("scenario %s: tenants cannot combine with a saturation stage", s.Name)
			}
			if st.StartRate <= 0 {
				return fmt.Errorf("scenario %s: stage %s: saturation needs start_rate > 0 (the search lower bound)", s.Name, st.Name)
			}
			if st.StartRate >= st.Rate {
				return fmt.Errorf("scenario %s: stage %s: start_rate %g must be < rate %g (the search bounds)", s.Name, st.Name, st.StartRate, st.Rate)
			}
			if st.Probes < 1 || st.Probes > 20 {
				return fmt.Errorf("scenario %s: stage %s: probes must be in [1, 20], got %d", s.Name, st.Name, st.Probes)
			}
		default:
			return fmt.Errorf("scenario %s: stage %s: kind %q (want steady, ramp, spike or saturation)", s.Name, st.Name, st.Kind)
		}
		if st.Kind != "saturation" && st.Probes != 0 {
			return fmt.Errorf("scenario %s: stage %s: probes only applies to saturation stages", s.Name, st.Name)
		}
		if st.Duration <= 0 {
			return fmt.Errorf("scenario %s: stage %s: duration must be > 0, got %s", s.Name, st.Name, st.Duration.D())
		}
		if st.Rate <= 0 {
			return fmt.Errorf("scenario %s: stage %s: rate must be > 0, got %g", s.Name, st.Name, st.Rate)
		}
		if st.StartRate < 0 {
			return fmt.Errorf("scenario %s: stage %s: start_rate must be >= 0", s.Name, st.Name)
		}
	}
	total := s.TotalDuration()
	for i, f := range s.Faults {
		switch f.Kind {
		case "kill", "restart", "drain", "rejoin":
			if f.TM < 1 || f.TM > s.Topology.TMs {
				return fmt.Errorf("scenario %s: faults[%d]: tm %d out of range [1, topology.tms=%d]", s.Name, i, f.TM, s.Topology.TMs)
			}
		case "restart_ms":
			if f.TM != 0 {
				return fmt.Errorf("scenario %s: faults[%d]: restart_ms takes no tm (it targets the Management Service)", s.Name, i)
			}
			if f.Redeploy {
				return fmt.Errorf("scenario %s: faults[%d]: redeploy does not apply to restart_ms (placements are recovered from the store)", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %s: faults[%d]: kind %q (want kill, restart, drain, rejoin or restart_ms)", s.Name, i, f.Kind)
		}
		if f.At < 0 || f.At.D() >= total {
			return fmt.Errorf("scenario %s: faults[%d]: at %s outside the run's %s total", s.Name, i, f.At.D(), total)
		}
		if f.Redeploy && (f.Kind == "kill" || f.Kind == "drain") {
			return fmt.Errorf("scenario %s: faults[%d]: redeploy only applies to rejoin/restart", s.Name, i)
		}
	}
	for _, a := range s.Assertions {
		base, tenant := splitAssertion(a.Name)
		meta, known := assertionNames[base]
		if !known {
			names := make([]string, 0, len(assertionNames))
			for n := range assertionNames {
				names = append(names, n)
			}
			sort.Strings(names)
			return fmt.Errorf("scenario %s: unknown assertion %q (known: %v, optionally .<tenant-id> qualified)", s.Name, a.Name, names)
		}
		if tenant != "" {
			if !perTenantAssertions[base] {
				return fmt.Errorf("scenario %s: assertion %s: %s cannot be tenant-qualified (whole-run observable)", s.Name, a.Name, base)
			}
			if !tenantIDs[tenant] {
				return fmt.Errorf("scenario %s: assertion %s: unknown tenant %q (declare it under tenants:)", s.Name, a.Name, tenant)
			}
		}
		if a.Value < 0 {
			return fmt.Errorf("scenario %s: assertion %s: value must be >= 0", s.Name, a.Name)
		}
		if meta.fraction && a.Value > 1 {
			return fmt.Errorf("scenario %s: assertion %s: value is a fraction in [0,1], got %g", s.Name, a.Name, a.Value)
		}
	}
	if s.Service.TMStaleAfter > 0 && s.Topology.Heartbeat.D() >= s.Service.TMStaleAfter.D() {
		return fmt.Errorf("scenario %s: topology.heartbeat %s must be < service.tm_stale_after %s", s.Name, s.Topology.Heartbeat.D(), s.Service.TMStaleAfter.D())
	}
	for _, f := range s.Faults {
		if (f.Kind == "kill" || f.Kind == "restart") && s.Service.TMStaleAfter <= 0 {
			return fmt.Errorf("scenario %s: kill/restart faults need service.tm_stale_after > 0 (no dead-TM signal otherwise)", s.Name)
		}
	}
	return nil
}

// --- decoding ---------------------------------------------------------------

// decodeSpec maps the parsed YAML tree onto a Spec, applying defaults.
// Unknown keys are errors: a typo'd field must fail -scenario-check,
// not silently fall back to a default.
func decodeSpec(root any) (*Spec, error) {
	top, err := asMap(root, "scenario")
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	spec := &Spec{
		Seed: 42,
		Topology: TopologySpec{
			TMs:   1,
			Nodes: 4,
		},
		Workload: WorkloadSpec{
			Kind:         "run",
			Servable:     "synthetic",
			Work:         Duration(10 * time.Millisecond),
			Placements:   1,
			Replicas:     2,
			Clients:      8,
			KeySpace:     16,
			Distribution: "uniform",
			ZipfS:        1.2,
		},
	}
	d.with(top, "scenario", func(f *fields) {
		spec.Name = f.str("name", "")
		spec.Description = f.str("description", "")
		spec.Seed = f.i64("seed", spec.Seed)
		spec.Auth = f.boolean("auth", false)
		if sub, ok := f.sub("topology"); ok {
			d.with(sub, "topology", func(f *fields) {
				spec.Topology.TMs = f.num("tms", spec.Topology.TMs)
				spec.Topology.WAN = f.boolean("wan", false)
				spec.Topology.Nodes = f.num("nodes", spec.Topology.Nodes)
				spec.Topology.Heartbeat = f.dur("heartbeat", 0)
			})
		}
		if sub, ok := f.sub("service"); ok {
			d.with(sub, "service", func(f *fields) {
				spec.Service.Cache = f.boolean("cache", false)
				spec.Service.MaxQueue = f.num("max_queue", 0)
				spec.Service.TMStaleAfter = f.dur("tm_stale_after", 0)
				spec.Service.FailoverRetries = f.num("failover_retries", 0)
				spec.Service.AutoscaleInterval = f.dur("autoscale_interval", 0)
			})
		}
		if sub, ok := f.sub("workload"); ok {
			d.with(sub, "workload", func(f *fields) {
				w := &spec.Workload
				w.Kind = f.str("kind", w.Kind)
				w.Servable = f.str("servable", w.Servable)
				w.Work = f.dur("work", w.Work)
				w.Placements = f.num("placements", w.Placements)
				w.Disjoint = f.boolean("disjoint", false)
				w.Replicas = f.num("replicas", w.Replicas)
				w.Clients = f.num("clients", w.Clients)
				w.KeySpace = f.num("key_space", w.KeySpace)
				w.Distribution = f.str("distribution", w.Distribution)
				w.ZipfS = f.f64("zipf_s", w.ZipfS)
				w.BatchSize = f.num("batch_size", 8)
				w.NoCache = f.boolean("no_cache", false)
			})
		}
		for i, item := range f.list("tenants") {
			sub, err := asMap(item, fmt.Sprintf("tenants[%d]", i))
			if err != nil {
				d.fail(err)
				continue
			}
			var ts TenantSpec
			d.with(sub, fmt.Sprintf("tenants[%d]", i), func(f *fields) {
				ts.ID = f.str("id", "")
				ts.Share = f.f64("share", 0)
				ts.Priority = f.str("priority", "")
				ts.MaxInFlight = f.num("max_in_flight", 0)
				ts.RatePerSec = f.f64("rate_per_sec", 0)
			})
			spec.Tenants = append(spec.Tenants, ts)
		}
		for i, item := range f.list("stages") {
			sub, err := asMap(item, fmt.Sprintf("stages[%d]", i))
			if err != nil {
				d.fail(err)
				continue
			}
			st := StageSpec{Kind: "steady"}
			d.with(sub, fmt.Sprintf("stages[%d]", i), func(f *fields) {
				st.Name = f.str("name", "")
				st.Kind = f.str("kind", st.Kind)
				st.Duration = f.dur("duration", 0)
				st.Rate = f.f64("rate", 0)
				st.StartRate = f.f64("start_rate", 0)
				st.Probes = f.num("probes", 0)
			})
			if st.Kind == "saturation" && st.Probes == 0 {
				st.Probes = 6
			}
			spec.Stages = append(spec.Stages, st)
		}
		for i, item := range f.list("faults") {
			sub, err := asMap(item, fmt.Sprintf("faults[%d]", i))
			if err != nil {
				d.fail(err)
				continue
			}
			var fa FaultSpec
			d.with(sub, fmt.Sprintf("faults[%d]", i), func(f *fields) {
				fa.At = f.dur("at", 0)
				fa.Kind = f.str("kind", "")
				fa.TM = f.num("tm", 0)
				fa.Redeploy = f.boolean("redeploy", false)
			})
			spec.Faults = append(spec.Faults, fa)
		}
		if sub, ok := f.sub("assertions"); ok {
			names := make([]string, 0, len(sub))
			for name := range sub {
				names = append(names, name)
			}
			sort.Strings(names)
			af := &fields{d: d, section: "assertions", m: sub, used: map[string]bool{}}
			for _, name := range names {
				spec.Assertions = append(spec.Assertions, Assertion{Name: name, Value: af.f64(name, 0)})
			}
		}
	})
	if d.err != nil {
		return nil, d.err
	}
	// Heartbeat default: fast enough that the liveness window cannot
	// expire between beats.
	if spec.Service.TMStaleAfter > 0 && spec.Topology.Heartbeat == 0 {
		spec.Topology.Heartbeat = Duration(spec.Service.TMStaleAfter.D() / 4)
	}
	return spec, nil
}

// decoder accumulates the first decode error; subsequent field reads
// become no-ops so every helper can stay expression-shaped.
type decoder struct{ err error }

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// with runs fn over a section's fields, then rejects unknown keys.
func (d *decoder) with(m map[string]any, section string, fn func(*fields)) {
	f := &fields{d: d, section: section, m: m, used: map[string]bool{}}
	fn(f)
	for key := range m {
		if !f.used[key] {
			d.fail(fmt.Errorf("scenario: %s: unknown field %q", section, key))
			return
		}
	}
}

// fields reads typed values out of one mapping section.
type fields struct {
	d       *decoder
	section string
	m       map[string]any
	used    map[string]bool
}

func (f *fields) raw(key string) (string, bool) {
	f.used[key] = true
	v, ok := f.m[key]
	if !ok {
		return "", false
	}
	s, isStr := v.(string)
	if !isStr {
		f.d.fail(fmt.Errorf("scenario: %s.%s: expected a scalar value", f.section, key))
		return "", false
	}
	return s, true
}

func (f *fields) str(key, def string) string {
	if s, ok := f.raw(key); ok {
		return s
	}
	return def
}

func (f *fields) num(key string, def int) int {
	s, ok := f.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		f.d.fail(fmt.Errorf("scenario: %s.%s: %q is not an integer", f.section, key, s))
		return def
	}
	return n
}

func (f *fields) i64(key string, def int64) int64 {
	s, ok := f.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		f.d.fail(fmt.Errorf("scenario: %s.%s: %q is not an integer", f.section, key, s))
		return def
	}
	return n
}

func (f *fields) f64(key string, def float64) float64 {
	s, ok := f.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseFloat(s, 64)
	if err != nil {
		f.d.fail(fmt.Errorf("scenario: %s.%s: %q is not a number", f.section, key, s))
		return def
	}
	return n
}

func (f *fields) boolean(key string, def bool) bool {
	s, ok := f.raw(key)
	if !ok {
		return def
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	f.d.fail(fmt.Errorf("scenario: %s.%s: %q is not a bool (true/false)", f.section, key, s))
	return def
}

func (f *fields) dur(key string, def Duration) Duration {
	s, ok := f.raw(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		f.d.fail(fmt.Errorf("scenario: %s.%s: %q is not a duration (e.g. 500ms, 2s)", f.section, key, s))
		return def
	}
	return Duration(d)
}

func (f *fields) sub(key string) (map[string]any, bool) {
	f.used[key] = true
	v, ok := f.m[key]
	if !ok {
		return nil, false
	}
	m, err := asMap(v, f.section+"."+key)
	if err != nil {
		f.d.fail(err)
		return nil, false
	}
	return m, true
}

func (f *fields) list(key string) []any {
	f.used[key] = true
	v, ok := f.m[key]
	if !ok {
		return nil
	}
	l, isList := v.([]any)
	if !isList {
		f.d.fail(fmt.Errorf("scenario: %s.%s: expected a list", f.section, key))
		return nil
	}
	return l
}

func asMap(v any, what string) (map[string]any, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: %s: expected a mapping", what)
	}
	return m, nil
}
