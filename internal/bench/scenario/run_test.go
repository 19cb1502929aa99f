package scenario

import (
	"testing"
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
