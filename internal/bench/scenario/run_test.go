package scenario

import (
	"strings"
	"testing"
	"time"
)

// The chaos scenario end to end at reduced scale: a TM is killed -9
// under steady load and later restarted. The run must finish with ZERO
// client-visible failures while the failover counters prove the
// recovery actually happened (requests were stranded and
// re-dispatched) — the harness's core acceptance contract.
func TestChaosScenarioIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration run")
	}
	spec, err := parseFile("../../../scenarios/chaos-tm-kill.yaml")
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(spec, Options{Compress: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := report.Scenario
	if res.Totals.Errors != 0 {
		t.Errorf("client-visible failures = %d, want 0", res.Totals.Errors)
	}
	if res.Failovers["redispatched"] == 0 {
		t.Error("no redispatches recorded — the kill never exercised failover")
	}
	if !res.Passed {
		t.Errorf("assertions failed: %+v", res.Assertions)
	}
	if res.Totals.Completed == 0 || res.Totals.Offered != res.Totals.Completed+res.Totals.Errors {
		t.Errorf("inconsistent totals: %+v", res.Totals)
	}
	if len(res.Stages) != len(spec.Stages) {
		t.Errorf("stage results = %d, want %d", len(res.Stages), len(spec.Stages))
	}
	// The compressed run halves wall time: every stage window is the
	// spec duration / 2.
	for i, sr := range res.Stages {
		want := spec.Stages[i].Duration.D().Milliseconds() / 2
		if sr.DurationMS != want {
			t.Errorf("stage %s duration = %dms, want %dms", sr.Name, sr.DurationMS, want)
		}
	}
}

// A tiny saturation scenario end to end: the binary search runs its
// probes through the load executor, the ceiling lands inside the search
// bounds and the assertions are evaluated against it.
func TestSaturationScenarioRuns(t *testing.T) {
	spec, err := Parse([]byte(`
name: tiny-saturation
workload:
  kind: run
  servable: synthetic
  work: 1ms
  distribution: unique
  no_cache: true
stages:
  - name: search
    kind: saturation
    duration: 150ms
    start_rate: 10
    rate: 50
    probes: 2
assertions:
  max_error_rate: 0
  min_saturation_rps: 1
`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	report, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("run took %s, want < 3s", d)
	}
	res := report.Scenario
	if len(res.Stages) != 2 {
		t.Fatalf("stages = %+v, want two probes", res.Stages)
	}
	for _, sr := range res.Stages {
		if sr.Kind != "saturation" || !strings.HasPrefix(sr.Name, "probe-") || sr.Offered == 0 {
			t.Errorf("probe stage = %+v", sr)
		}
	}
	if res.SaturationRPS < 10 || res.SaturationRPS > 50 {
		t.Errorf("saturation_rps = %g, want in [10, 50]", res.SaturationRPS)
	}
	if res.Totals.Offered != res.Stages[0].Offered+res.Stages[1].Offered {
		t.Errorf("totals %+v do not sum the probes", res.Totals)
	}
	if len(res.Assertions) != 2 || !res.Passed {
		t.Errorf("assertions = %+v, passed = %v", res.Assertions, res.Passed)
	}
}
