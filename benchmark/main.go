// Command benchmark measures the DLHub reproduction end to end and layer
// by layer: five workloads over real loopback HTTP, latency reported as
// a ratio to a bare-HTTP reference call interleaved on the same
// connection, exact allocation counts, and an outside-in layer trace.
// See README.md beside this file; BENCHMARK.json at the repository root
// names every metric and its regression bound.
//
//	benchmark -workload run-direct            end-to-end metrics, one workload
//	benchmark -workload run-direct -trace 1   per-layer metrics, one workload
//	benchmark                                 end-to-end metrics, all workloads
//	benchmark -layers                         isolated layer drivers only
//	benchmark -aa 5                           five sets; spread against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	def := defaultParams()
	name := flag.String("workload", "", "workload to run in this process (default: each of them in a child process)")
	seed := flag.Int64("seed", def.seed, "seeds request keys and op order")
	seconds := flag.Float64("seconds", def.window.Seconds(), "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics (traced pass and isolated drivers) instead of the end-to-end ones")
	layers := flag.Bool("layers", false, "run only the isolated layer drivers")
	aa := flag.Int("aa", 0, "run this many complete sets of the same build and judge their spread against BENCHMARK.json's bounds")
	expect := flag.String("expect", def.expect, "output every run must return; anything but the default makes the benchmark fail, which is how its checking is checked")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	p := def
	p.seed, p.window, p.traced, p.expect = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *expect
	runtime.GOMAXPROCS(procs) // before the host block records it
	p.host = measureHost()
	printHost(p.host)

	switch {
	case *layers:
		m, err := runDrivers(p)
		if err != nil {
			fatal(err)
		}
		printMetrics(m)
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, p)
		if err != nil {
			fatal(err)
		}
		if p.traced {
			drivers, err := runDrivers(p)
			if err != nil {
				fatal(err)
			}
			res.metrics = append(res.metrics, drivers...)
		}
		fmt.Printf("workload %s seed %d window %s: %d attempted, %d failed\n", w.name, p.seed, p.window, res.attempted, res.failed)
		printMetrics(res.metrics)
		line, err := res.line()
		if err != nil {
			fatal(err)
		}
		fmt.Println(line)
		if res.failed > 0 {
			fatal(fmt.Errorf("%d of %d requests failed; first: %w", res.failed, res.attempted, res.firstErr))
		}
	case *aa > 0:
		if err := runAA(*aa, p); err != nil {
			fatal(err)
		}
	default:
		all := map[string]map[string]wireMetric{}
		for i := range workloads {
			out, err := runChild(&workloads[i], p)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("workload %s: %d attempted, %d failed\n", workloads[i].name, out.Attempted, out.Failed)
			for _, n := range sortedKeys(out.Metrics) {
				fmt.Printf("  %-40s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
			}
			all[workloads[i].name] = out.Metrics
		}
		// This benchmark defines the baseline; it claims no gain.
		summary, err := json.Marshal(map[string]any{"claim": nil, "workloads": all})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(summary))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func printHost(h hostInfo) {
	b, err := json.Marshal(h)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("host %s\n", b)
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// wireMetric and wireResult are the result line every run ends with.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (r result) line() (string, error) {
	out := wireResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wireMetric{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = wireMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runChild runs one workload in a process of its own, so that no
// workload inherits another's heap, goroutines or page cache, and
// returns the result line it printed.
func runChild(w *workload, p params) (wireResult, error) {
	self, err := os.Executable()
	if err != nil {
		return wireResult{}, err
	}
	traced := "0"
	if p.traced {
		traced = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.window.Seconds(), 'g', -1, 64), "-trace", traced, "-expect", p.expect)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return wireResult{}, fmt.Errorf("workload %s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res wireResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return wireResult{}, fmt.Errorf("workload %s: bad result line: %w", w.name, err)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runAA runs n complete sets of the same build, each set on its own
// seed, and prints for every workload and end-to-end metric the per-set
// values, their median, (max-min)/median and (Q3-Q1)/median. The verdict
// is the acceptance rule this benchmark is held to: the quartile spread
// must stay within the metric's bound, setup_s excepted, whose bound
// applies to its median only.
func runAA(n int, p params) error {
	if n < 2 {
		return errors.New("-aa needs at least 2 sets")
	}
	raw, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string][]float64{} // workload/metric -> one value per set
	for set := 0; set < n; set++ {
		q := p
		q.seed = p.seed + int64(set)
		for i := range workloads {
			out, err := runChild(&workloads[i], q)
			if err != nil {
				return err
			}
			if out.Failed > 0 {
				return fmt.Errorf("workload %s: %d requests failed", workloads[i].name, out.Failed)
			}
			for name, m := range out.Metrics {
				key := workloads[i].name + "/" + name
				values[key] = append(values[key], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, n, workloads[i].name)
		}
	}
	failed := 0
	fmt.Println("| workload | metric | per-set values | median | (max-min)/median | (Q3-Q1)/median | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for i := range workloads {
		for _, m := range spec.EndToEnd {
			v := values[workloads[i].name+"/"+m.Name]
			if len(v) != n {
				return fmt.Errorf("workload %s did not report %s in every set", workloads[i].name, m.Name)
			}
			cells := make([]string, n)
			for j, x := range v {
				cells[j] = strconv.FormatFloat(x, 'g', 5, 64)
			}
			sort.Float64s(v)
			median := quantile(v, 2)
			spread := (quantile(v, 3) - quantile(v, 1)) / median
			verdict := "PASS"
			switch {
			case m.Name == "setup_s":
				verdict = "exempt"
			case spread > m.Bound:
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.2f%% | %.2f%% | %.0f%% | %s |\n", workloads[i].name, m.Name,
				strings.Join(cells, " "), median, (v[n-1]-v[0])/median*100, spread*100, m.Bound*100, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound", failed)
	}
	return nil
}

// quantile returns the i-th quartile of sorted as Python's
// statistics.quantiles(sorted, n=4) computes it, the driver's yardstick.
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}
