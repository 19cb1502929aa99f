package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// parseFile reads, parses and validates a scenario spec file.
func parseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// minimalSpec is the smallest valid scenario; test cases mutate it.
const minimalSpec = `
name: unit
workload:
  kind: run
  servable: synthetic
stages:
  - name: only
    kind: steady
    duration: 2s
    rate: 10
`

func TestParseMinimalDefaults(t *testing.T) {
	spec, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 {
		t.Errorf("default seed = %d, want 42", spec.Seed)
	}
	if spec.Topology.TMs != 1 || spec.Topology.Nodes != 4 {
		t.Errorf("topology defaults = %+v", spec.Topology)
	}
	w := spec.Workload
	if w.Replicas != 2 || w.Clients != 8 || w.KeySpace != 16 || w.Distribution != "uniform" {
		t.Errorf("workload defaults = %+v", w)
	}
	if w.Work.D() != 10*time.Millisecond {
		t.Errorf("default work = %s", w.Work.D())
	}
	if total := spec.TotalDuration(); total != 2*time.Second {
		t.Errorf("total duration = %s", total)
	}
}

// TestParseFullSpec pins the whole surface: every section, quoted
// scalars, comments, durations, zipf numerics, faults and assertions.
func TestParseFullSpec(t *testing.T) {
	spec, err := Parse([]byte(`
# top comment
name: full
description: "every # field"   # trailing comment
seed: 7
topology:
  tms: 2
  wan: true
  nodes: 6
  heartbeat: 250ms
service:
  cache: true
  max_queue: 100
  tm_stale_after: 1s
  failover_retries: 3
workload:
  kind: run
  servable: synthetic
  work: 15ms
  placements: 2
  replicas: 3
  clients: 4
  key_space: 64
  distribution: zipf
  zipf_s: 1.4
stages:
  - name: a
    kind: ramp
    duration: 3s
    start_rate: 2
    rate: 20
  - name: b
    kind: spike
    duration: 2s
    rate: 30
faults:
  - at: 1s
    kind: kill
    tm: 2
  - at: 2500ms
    kind: restart
    tm: 2
    redeploy: true
assertions:
  max_error_rate: 0.01
  min_redispatched: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Description != "every # field" {
		t.Errorf("quoted description = %q", spec.Description)
	}
	if !spec.Topology.WAN || spec.Topology.Heartbeat.D() != 250*time.Millisecond {
		t.Errorf("topology = %+v", spec.Topology)
	}
	if !spec.Service.Cache || spec.Service.TMStaleAfter.D() != time.Second || spec.Service.FailoverRetries != 3 {
		t.Errorf("service = %+v", spec.Service)
	}
	if spec.Workload.ZipfS != 1.4 || spec.Workload.Distribution != "zipf" {
		t.Errorf("workload = %+v", spec.Workload)
	}
	if len(spec.Stages) != 2 || spec.Stages[0].StartRate != 2 || spec.Stages[1].Kind != "spike" {
		t.Errorf("stages = %+v", spec.Stages)
	}
	if len(spec.Faults) != 2 || spec.Faults[1].At.D() != 2500*time.Millisecond || !spec.Faults[1].Redeploy {
		t.Errorf("faults = %+v", spec.Faults)
	}
	if len(spec.Assertions) != 2 {
		t.Errorf("assertions = %+v", spec.Assertions)
	}
}

// TestParseErrors tables every rejected spec: YAML-level breakage,
// unknown fields, and validation bounds. The harness must refuse these
// loudly — a typo that silently became a default would invalidate a
// committed result.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		want string // substring of the error
	}{
		{"tabs", "name: x\n\tworkload: y\n", "tabs are not allowed"},
		{"multi-doc", "name: x\n---\nname: y\n", "multiple documents"},
		{"duplicate-key", "name: x\nname: y\n", "duplicate key"},
		{"empty-doc", "# only comments\n", "empty document"},
		{"empty-seq-item", minimalSpec + "faults:\n  -\n", "empty sequence items"},
		{"non-mapping-root", "- a\n- b\n", "expected a mapping"},
		{"unknown-top-field", minimalSpec + "bogus: 1\n", `unknown field "bogus"`},
		{"unknown-workload-field", strings.Replace(minimalSpec, "servable: synthetic", "servable: synthetic\n  typo_field: 3", 1), `unknown field "typo_field"`},
		{"missing-name", strings.Replace(minimalSpec, "name: unit\n", "", 1), "name is required"},
		{"bad-name", strings.Replace(minimalSpec, "name: unit", "name: Unit Test", 1), "lowercase"},
		{"bad-seed", strings.Replace(minimalSpec, "name: unit", "name: unit\nseed: abc", 1), "not an integer"},
		{"bad-duration", strings.Replace(minimalSpec, "duration: 2s", "duration: fast", 1), "not a duration"},
		{"zero-duration", strings.Replace(minimalSpec, "duration: 2s", "duration: 0s", 1), "duration must be > 0"},
		{"negative-rate", strings.Replace(minimalSpec, "rate: 10", "rate: -5", 1), "rate must be > 0"},
		{"bad-stage-kind", strings.Replace(minimalSpec, "kind: steady", "kind: sawtooth", 1), `kind "sawtooth"`},
		{"steady-start-rate", strings.Replace(minimalSpec, "rate: 10", "rate: 10\n    start_rate: 5", 1), "start_rate only applies to ramp"},
		{"no-stages", strings.Replace(minimalSpec, "stages:\n  - name: only\n    kind: steady\n    duration: 2s\n    rate: 10\n", "stages:\n", 1), "expected a list"},
		{"duplicate-stage", minimalSpec + "  - name: only\n    kind: steady\n    duration: 1s\n    rate: 1\n", `duplicate stage name "only"`},
		{"bad-workload-kind", strings.Replace(minimalSpec, "kind: run", "kind: fire", 1), `workload.kind "fire"`},
		{"bad-servable", strings.Replace(minimalSpec, "servable: synthetic", "servable: resnet", 1), `workload.servable "resnet"`},
		{"pipeline-synthetic", strings.Replace(minimalSpec, "kind: run", "kind: pipeline", 1), "cannot serve kind pipeline"},
		{"bad-distribution", strings.Replace(minimalSpec, "servable: synthetic", "servable: synthetic\n  distribution: pareto", 1), `workload.distribution "pareto"`},
		{"zipf-low-s", strings.Replace(minimalSpec, "servable: synthetic", "servable: synthetic\n  distribution: zipf\n  zipf_s: 0.5", 1), "zipf_s must be > 1"},
		{"placements-exceed-tms", strings.Replace(minimalSpec, "servable: synthetic", "servable: synthetic\n  placements: 3", 1), "out of range"},
		{"unknown-fault-kind", minimalSpec + "faults:\n  - at: 1s\n    kind: explode\n    tm: 1\n", `kind "explode"`},
		{"fault-tm-out-of-range", minimalSpec + "service:\n  tm_stale_after: 1s\nfaults:\n  - at: 1s\n    kind: kill\n    tm: 2\n", "tm 2 out of range"},
		{"fault-past-end", minimalSpec + "service:\n  tm_stale_after: 1s\nfaults:\n  - at: 10s\n    kind: kill\n    tm: 1\n", "outside the run"},
		{"kill-without-liveness", minimalSpec + "faults:\n  - at: 1s\n    kind: kill\n    tm: 1\n", "need service.tm_stale_after"},
		{"redeploy-on-kill", minimalSpec + "service:\n  tm_stale_after: 1s\nfaults:\n  - at: 1s\n    kind: kill\n    tm: 1\n    redeploy: true\n", "redeploy only applies"},
		{"unknown-assertion", minimalSpec + "assertions:\n  max_latency: 5\n", `unknown assertion "max_latency"`},
		{"assertion-fraction-range", minimalSpec + "assertions:\n  max_error_rate: 1.5\n", "fraction in [0,1]"},
		{"assertion-negative", minimalSpec + "assertions:\n  min_throughput: -1\n", "must be >= 0"},
		{"heartbeat-vs-stale", minimalSpec + "topology:\n  heartbeat: 2s\nservice:\n  tm_stale_after: 1s\n", "must be < service.tm_stale_after"},
		{"tenant-unknown-field", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    weight: 3\n", `unknown field "weight"`},
		{"tenant-missing-id", minimalSpec + "tenants:\n  - share: 0.5\n", "id is required"},
		{"tenant-reserved-id", minimalSpec + "tenants:\n  - id: anonymous\n    share: 0.5\n", "reserved"},
		{"tenant-duplicate-id", minimalSpec + "tenants:\n  - id: a\n    share: 0.3\n  - id: a\n    share: 0.3\n", `duplicate tenant id "a"`},
		{"tenant-zero-share", minimalSpec + "tenants:\n  - id: a\n    share: 0\n", "share must be in (0, 1]"},
		{"tenant-share-above-one", minimalSpec + "tenants:\n  - id: a\n    share: 1.5\n", "share must be in (0, 1]"},
		{"tenant-shares-sum", minimalSpec + "tenants:\n  - id: a\n    share: 0.7\n  - id: b\n    share: 0.7\n", "sum to 1.4"},
		{"tenant-bad-priority", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    priority: urgent\n", `priority "urgent"`},
		{"tenant-negative-inflight", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    max_in_flight: -1\n", "max_in_flight must be >= 0"},
		{"tenant-negative-rate", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    rate_per_sec: -2\n", "rate_per_sec must be >= 0"},
		{"tenant-nan-rate", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    rate_per_sec: nan\n", "rate_per_sec must be >= 0 and finite"},
		{"tenant-inf-rate", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    rate_per_sec: inf\n", "rate_per_sec must be >= 0 and finite"},
		{"tenant-minus-inf-rate", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\n    rate_per_sec: -inf\n", "rate_per_sec must be >= 0 and finite"},
		{"auth-without-tenants", minimalSpec + "auth: true\n", "auth requires a tenants block"},
		{"assertion-unknown-tenant", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\nassertions:\n  max_p99_ms.b: 100\n", `unknown tenant "b"`},
		{"assertion-not-per-tenant", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\nassertions:\n  min_cache_hit_rate.a: 0.5\n", "cannot be tenant-qualified"},
		{"assertion-qualified-unknown-base", minimalSpec + "tenants:\n  - id: a\n    share: 0.5\nassertions:\n  max_latency.a: 5\n", `unknown assertion "max_latency.a"`},
		{"tenant-with-saturation", strings.Replace(minimalSpec, "kind: steady\n    duration: 2s\n    rate: 10",
			"kind: saturation\n    duration: 2s\n    rate: 10\n    start_rate: 5", 1) + "tenants:\n  - id: a\n    share: 0.5\n", "cannot combine with a saturation stage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.yaml))
			if err == nil {
				t.Fatalf("Parse accepted invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseAuthAndDurableTenants pins two contracts of the durable
// tenant registry: auth round-trips as a spec field, and tenants may
// now combine with a restart_ms fault (quotas are WAL-replayed, so the
// prohibition that guarded runtime-only quotas is gone).
func TestParseAuthAndDurableTenants(t *testing.T) {
	yaml := minimalSpec + `auth: true
tenants:
  - id: a
    share: 0.5
    max_in_flight: 4
faults:
  - at: 1s
    kind: restart_ms
`
	spec, err := Parse([]byte(yaml))
	if err != nil {
		t.Fatalf("tenants + restart_ms + auth must validate now that quotas are durable: %v", err)
	}
	if !spec.Auth {
		t.Fatal("auth: true did not round-trip")
	}
	if !spec.HasFault("restart_ms") || len(spec.Tenants) != 1 {
		t.Fatalf("spec lost its tenant or fault: %+v", spec)
	}
}

// TestParseTenants pins the tenants: block round trip and the
// schedule-side contract: tenant assignment is deterministic, tracks
// the declared shares, and — critically — declaring tenants must NOT
// perturb the key/offset schedule the same spec compiled to before,
// or every committed pre-tenancy result would silently change.
func TestParseTenants(t *testing.T) {
	yaml := minimalSpec + `tenants:
  - id: hog
    share: 0.7
    priority: high
    max_in_flight: 4
    rate_per_sec: 2.5
  - id: bg
    share: 0.1
assertions:
  max_error_rate.bg: 0
  max_p99_ms.bg: 100
`
	spec, err := Parse([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Tenants) != 2 {
		t.Fatalf("tenants = %+v", spec.Tenants)
	}
	hog := spec.Tenants[0]
	if hog.ID != "hog" || hog.Share != 0.7 || hog.Priority != "high" || hog.MaxInFlight != 4 || hog.RatePerSec != 2.5 {
		t.Errorf("hog = %+v", hog)
	}
	if bg := spec.Tenants[1]; bg.ID != "bg" || bg.Share != 0.1 || bg.Priority != "" {
		t.Errorf("bg = %+v", bg)
	}

	a, b := BuildSchedule(spec), BuildSchedule(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed produced different tenant assignments")
	}
	counts := map[string]int{}
	for _, r := range a.Requests {
		counts[r.Tenant]++
	}
	n := len(a.Requests)
	if counts["hog"] == 0 || counts["bg"] == 0 || counts[""] == 0 {
		t.Fatalf("tenant mix missing a class: %v", counts)
	}
	// 20 requests at these shares: the split must at least order as
	// hog > anonymous > bg (0.7 / 0.2 / 0.1).
	if !(counts["hog"] > counts[""] && counts[""] >= counts["bg"]) {
		t.Errorf("tenant shares off: %v over %d requests", counts, n)
	}

	// Bit-identical keys/offsets vs the tenant-free spec.
	plain, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	base := BuildSchedule(plain)
	if len(base.Requests) != n {
		t.Fatalf("request counts diverged: %d vs %d", len(base.Requests), n)
	}
	for i := range base.Requests {
		if base.Requests[i].Key != a.Requests[i].Key || base.Requests[i].Offset != a.Requests[i].Offset {
			t.Fatalf("request %d: declaring tenants changed the schedule (%+v vs %+v)", i, base.Requests[i], a.Requests[i])
		}
	}
}

// The same spec and seed must compile to the identical schedule —
// offsets, stage indices, keys, faults — run after run. This is what
// makes a committed BENCH file reproducible.
func TestScheduleDeterminism(t *testing.T) {
	yaml := strings.Replace(minimalSpec, "servable: synthetic",
		"servable: synthetic\n  distribution: zipf\n  zipf_s: 1.3\n  key_space: 64", 1)
	spec, err := Parse([]byte(yaml))
	if err != nil {
		t.Fatal(err)
	}
	a, b := BuildSchedule(spec), BuildSchedule(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec+seed produced different schedules")
	}
	spec2 := *spec
	spec2.Seed = spec.Seed + 1
	c := BuildSchedule(&spec2)
	same := len(c.Requests) == len(a.Requests)
	if same {
		diff := false
		for i := range a.Requests {
			if a.Requests[i].Key != c.Requests[i].Key {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds drew identical key sequences")
		}
	}
}

// TestScheduleShapes pins the stage math: request counts, monotone
// offsets inside the stage window, and spike's four-burst layout.
func TestScheduleShapes(t *testing.T) {
	spec, err := Parse([]byte(`
name: shapes
workload:
  kind: run
  servable: synthetic
stages:
  - name: flat
    kind: steady
    duration: 10s
    rate: 5
  - name: up
    kind: ramp
    duration: 10s
    start_rate: 0
    rate: 10
  - name: burst
    kind: spike
    duration: 8s
    rate: 10
`))
	if err != nil {
		t.Fatal(err)
	}
	sched := BuildSchedule(spec)
	counts := map[int]int{}
	for i, r := range sched.Requests {
		counts[r.Stage]++
		w := sched.Windows[r.Stage]
		if r.Offset < w.Start || r.Offset >= w.End {
			t.Fatalf("request %d offset %s outside stage %q window [%s,%s)", i, r.Offset, w.Name, w.Start, w.End)
		}
		if i > 0 && r.Offset < sched.Requests[i-1].Offset {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	if counts[0] != 50 { // 5 req/s * 10s
		t.Errorf("steady count = %d, want 50", counts[0])
	}
	if counts[1] != 50 { // (0+10)/2 * 10s
		t.Errorf("ramp count = %d, want 50", counts[1])
	}
	if counts[2] != 80 { // 10 req/s * 8s
		t.Errorf("spike count = %d, want 80", counts[2])
	}
	// Spike: exactly four distinct offsets, at quarters of the stage.
	burstStart := sched.Windows[2].Start
	offsets := map[time.Duration]int{}
	for _, r := range sched.Requests {
		if r.Stage == 2 {
			offsets[r.Offset-burstStart]++
		}
	}
	if len(offsets) != 4 {
		t.Fatalf("spike bursts = %v, want 4 distinct offsets", offsets)
	}
	for _, q := range []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second} {
		if offsets[q] != 20 {
			t.Errorf("burst at %s has %d requests, want 20", q, offsets[q])
		}
	}
	// Ramp rate grows: the second half must hold more requests than
	// the first.
	rampStart, rampEnd := sched.Windows[1].Start, sched.Windows[1].End
	mid := rampStart + (rampEnd-rampStart)/2
	var first, second int
	for _, r := range sched.Requests {
		if r.Stage != 1 {
			continue
		}
		if r.Offset < mid {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Errorf("ramp not increasing: first half %d, second half %d", first, second)
	}
}

// Compressed divides durations and fault offsets but preserves rates,
// so request counts shrink linearly.
func TestCompressed(t *testing.T) {
	spec, err := Parse([]byte(minimalSpec + "service:\n  tm_stale_after: 500ms\nfaults:\n  - at: 1s\n    kind: kill\n    tm: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	c := spec.Compressed(2)
	if c.Stages[0].Duration.D() != time.Second {
		t.Errorf("compressed duration = %s, want 1s", c.Stages[0].Duration.D())
	}
	if c.Stages[0].Rate != 10 {
		t.Errorf("compressed rate = %g, want 10 (rates are preserved)", c.Stages[0].Rate)
	}
	if c.Faults[0].At.D() != 500*time.Millisecond {
		t.Errorf("compressed fault offset = %s, want 500ms", c.Faults[0].At.D())
	}
	if spec.Stages[0].Duration.D() != 2*time.Second {
		t.Error("Compressed mutated the original spec")
	}
	full, half := BuildSchedule(spec), BuildSchedule(c)
	if len(half.Requests)*2 != len(full.Requests) {
		t.Errorf("compressed requests = %d, full = %d, want half", len(half.Requests), len(full.Requests))
	}
}

// Every committed scenario file must parse, validate, and compile to a
// non-empty schedule.
func TestCommittedScenarios(t *testing.T) {
	files := []string{"diurnal-ramp", "hotkey-skew", "wan-pipeline", "chaos-tm-kill", "cache-churn", "tenant-fairness"}
	for _, name := range files {
		t.Run(name, func(t *testing.T) {
			spec, err := parseFile("../../../scenarios/" + name + ".yaml")
			if err != nil {
				t.Fatal(err)
			}
			if spec.Name != name {
				t.Errorf("spec name %q does not match file name %q", spec.Name, name)
			}
			if sched := BuildSchedule(spec); len(sched.Requests) == 0 {
				t.Error("empty schedule")
			}
		})
	}
}

// FuzzScenarioParse: Parse over arbitrary bytes returns a spec or an
// error and never panics. It is seeded with every committed scenario.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob("../../../scenarios/*.yaml")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed scenarios to seed from (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(minimalSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		Parse(data) //nolint:errcheck — only a panic fails
	})
}
