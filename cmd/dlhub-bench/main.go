// Command dlhub-bench regenerates every table and figure of the paper's
// evaluation (§V) on the in-process three-site testbed, and executes
// declarative benchmark scenarios (docs/BENCH.md).
//
//	dlhub-bench                    # all experiments, laptop scale
//	dlhub-bench -exp fig3,fig8     # a subset
//	dlhub-bench -paper-scale       # the paper's full request counts
//	dlhub-bench -scale 10          # compress injected latencies 10x
//
//	dlhub-bench -scenario scenarios/chaos-tm-kill.yaml
//	    run one scenario; write BENCH_<name>.json; exit 1 on assertion failure
//	dlhub-bench -scenario f.yaml -scenario-check
//	    parse + validate only (CI lint over scenarios/*.yaml)
//	dlhub-bench -scenario f.yaml -scenario-compress 20
//	    divide stage durations and fault offsets by 20 (CI scale)
//	dlhub-bench -scenario f.yaml -verify-json BENCH_<name>.json
//	    check a committed result is not stale against its spec file
//	dlhub-bench -diff old.json new.json
//	    compare two scenario BENCH reports; exit 1 when new regresses
//	    past -diff-threshold (default 10%) on throughput, latency,
//	    allocs/op or the saturation ceiling
//
// Absolute numbers differ from the paper's testbed (PetrelKube had 448
// cores; the models here are width-reduced — see DESIGN.md), but the
// qualitative shapes of Figs. 3-8 are expected to hold; EXPERIMENTS.md
// records paper-vs-measured for each.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/scenario"
	"repro/internal/simconst"
)

func main() {
	exps := flag.String("exp", "table1,table2,fig3,fig4,fig5,fig6,fig7,fig8,cache,autoscale,pipeline", "comma-separated experiments to run")
	paperScale := flag.Bool("paper-scale", false, "use the paper's full experiment sizes (slow)")
	scale := flag.Float64("scale", 1, "divide injected environmental latencies by this factor")
	requests := flag.Int("requests", 0, "override requests per configuration (figs 3/4/8)")
	fig7n := flag.Int("fig7-n", 0, "override inferences per replica point (fig 7)")
	verbose := flag.Bool("v", true, "log progress")
	jsonOut := flag.String("json", "", "also write machine-readable results (bench.Report) to this path")
	scenarioFile := flag.String("scenario", "", "run a declarative scenario spec (YAML, see docs/BENCH.md) instead of paper experiments")
	scenarioCheck := flag.Bool("scenario-check", false, "with -scenario: parse and validate the spec, then exit")
	scenarioCompress := flag.Float64("scenario-compress", 1, "with -scenario: divide stage durations and fault offsets by this factor")
	verifyJSON := flag.String("verify-json", "", "with -scenario: verify this committed BENCH_*.json is up to date with the spec, then exit")
	diff := flag.Bool("diff", false, "compare two scenario BENCH reports (old.json new.json as positional args), exit 1 on regression")
	diffThreshold := flag.Float64("diff-threshold", 0.10, "with -diff: relative regression tolerance (0.10 = 10%)")
	flag.Parse()

	simconst.Scale = *scale

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dlhub-bench: -diff needs exactly two arguments: old.json new.json")
			os.Exit(1)
		}
		os.Exit(diffReports(flag.Arg(0), flag.Arg(1), *diffThreshold))
	}

	if *scenarioFile != "" {
		os.Exit(runScenario(*scenarioFile, *scenarioCheck, *scenarioCompress, *verifyJSON, *jsonOut, *verbose))
	}

	cfg := bench.Config{}
	if *paperScale {
		cfg = bench.PaperScale()
	}
	if *requests > 0 {
		cfg.Requests = *requests
	}
	if *fig7n > 0 {
		cfg.Fig7N = *fig7n
	}
	if *verbose {
		cfg.Out = os.Stderr
	}

	type experiment struct {
		name string
		run  func(bench.Config) (*bench.Table, error)
	}
	all := []experiment{
		{"table1", func(bench.Config) (*bench.Table, error) { return bench.Table1(), nil }},
		{"table2", func(bench.Config) (*bench.Table, error) { return bench.Table2(), nil }},
		{"fig3", bench.Fig3},
		{"fig4", bench.Fig4},
		{"fig5", bench.Fig5},
		{"fig6", bench.Fig6},
		{"fig7", bench.Fig7},
		{"fig8", bench.Fig8},
		{"cache", bench.AblationServiceCache},
		{"autoscale", bench.AblationAutoscale},
		{"pipeline", bench.AblationPipeline},
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(name)] = true
	}

	start := time.Now()
	report := bench.Report{Started: start.UTC()}
	for _, e := range all {
		if !want[e.name] {
			continue
		}
		expStart := time.Now()
		fmt.Fprintf(os.Stderr, "--- running %s ---\n", e.name)
		table, err := e.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		elapsed := time.Since(expStart)
		table.Note("completed in %s", elapsed.Round(time.Millisecond))
		table.Fprint(os.Stdout)
		report.Experiments = append(report.Experiments, table.Entry(e.name, elapsed))
	}
	report.DurationMS = time.Since(start).Milliseconds()
	if *jsonOut != "" {
		if err := report.WriteFile(*jsonOut); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "machine-readable results written to %s\n", *jsonOut)
	}
	fmt.Fprintf(os.Stderr, "all experiments done in %s\n", time.Since(start).Round(time.Second))
}

// runScenario handles the -scenario mode; its return value is the
// process exit code (non-zero = validation error, stale JSON, run
// failure or failed assertion).
func runScenario(path string, checkOnly bool, compress float64, verifyJSON, jsonOut string, verbose bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %v\n", err)
		return 1
	}
	spec, err := scenario.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %s: %v\n", path, err)
		return 1
	}
	sum := sha256.Sum256(data)
	specSHA := hex.EncodeToString(sum[:])

	if checkOnly {
		sched := scenario.BuildSchedule(spec)
		fmt.Printf("%s: OK — scenario %q: %d stages over %s, %d requests, %d faults, %d assertions\n",
			path, spec.Name, len(spec.Stages), spec.TotalDuration(), len(sched.Requests), len(spec.Faults), len(spec.Assertions))
		return 0
	}
	if verifyJSON != "" {
		return verifyCommitted(verifyJSON, spec.Name, specSHA)
	}

	opts := scenario.Options{Compress: compress, SpecPath: path, SpecSHA: specSHA}
	if verbose {
		opts.Progress = os.Stderr
	}
	fmt.Fprintf(os.Stderr, "--- scenario %s (compress %gx, seed %d) ---\n", spec.Name, compress, spec.Seed)
	start := time.Now()
	report, err := scenario.Run(spec, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: scenario %s: %v\n", spec.Name, err)
		return 1
	}
	printScenario(report.Scenario)
	out := jsonOut
	if out == "" {
		out = "BENCH_" + spec.Name + ".json"
	}
	if err := report.WriteFile(out); err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: write %s: %v\n", out, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "scenario %s done in %s, results written to %s\n",
		spec.Name, time.Since(start).Round(time.Millisecond), out)
	if !report.Scenario.Passed {
		fmt.Fprintf(os.Stderr, "dlhub-bench: scenario %s: ASSERTIONS FAILED\n", spec.Name)
		return 2
	}
	return 0
}

// verifyCommitted checks a committed BENCH_*.json against the spec file
// it claims to have been produced from: same scenario name, same spec
// content hash. Keeps the CI staleness gate dependency-free (no jq).
func verifyCommitted(jsonPath, wantName, wantSHA string) int {
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %v\n", err)
		return 1
	}
	var report struct {
		Scenario struct {
			Name       string `json:"name"`
			SpecSHA256 string `json:"spec_sha256"`
		} `json:"scenario"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %s: %v\n", jsonPath, err)
		return 1
	}
	if report.Scenario.Name != wantName {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %s records scenario %q, spec file defines %q\n",
			jsonPath, report.Scenario.Name, wantName)
		return 1
	}
	if report.Scenario.SpecSHA256 != wantSHA {
		fmt.Fprintf(os.Stderr, "dlhub-bench: %s is STALE: recorded spec_sha256 %.12s…, spec file hashes %.12s… — re-run `dlhub-bench -scenario <spec>` and commit the result\n",
			jsonPath, report.Scenario.SpecSHA256, wantSHA)
		return 1
	}
	fmt.Printf("%s: up to date with scenario %q (spec_sha256 %.12s…)\n", jsonPath, wantName, wantSHA)
	return 0
}

// printScenario renders the human summary of a scenario run.
func printScenario(res *bench.ScenarioResult) {
	t := &bench.Table{
		Title:   fmt.Sprintf("Scenario: %s", res.Name),
		Headers: []string{"stage", "kind", "offered", "done", "errs", "p50 (ms)", "p95 (ms)", "p99 (ms)", "req/s"},
	}
	row := func(sr bench.StageResult) {
		t.Add(sr.Name, sr.Kind, fmt.Sprint(sr.Offered), fmt.Sprint(sr.Completed), fmt.Sprint(sr.Errors),
			fmt.Sprintf("%.2f", sr.P50MS), fmt.Sprintf("%.2f", sr.P95MS), fmt.Sprintf("%.2f", sr.P99MS),
			fmt.Sprintf("%.1f", sr.Throughput))
	}
	for _, sr := range res.Stages {
		row(sr)
	}
	row(res.Totals)
	t.Note("cache hit rate %.2f%%; failovers lost=%d redispatched=%d exhausted=%d",
		res.CacheHitRate*100, res.Failovers["lost"], res.Failovers["redispatched"], res.Failovers["exhausted"])
	for _, a := range res.Assertions {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		t.Note("assert %s: want %g, got %g — %s", a.Name, a.Want, a.Got, verdict)
	}
	if res.Passed {
		t.Note("result: PASSED")
	} else {
		t.Note("result: FAILED")
	}
	t.Fprint(os.Stdout)
}
