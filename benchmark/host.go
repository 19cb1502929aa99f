package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hostInfo says where a result was measured. Ratios and counts travel
// between hosts; raw milliseconds do not, and neither does the paper's
// Fig. 7 "ceiling", which is the injected 300 µs dispatch sleep
// multiplied by this kernel's timer granularity (SleepActualUs).
type hostInfo struct {
	Cores         int     `json:"cores"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	SleepActualUs float64 `json:"sim.sleep_300us_actual_us"`
}

func measureHost() hostInfo {
	h := hostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	sleeps := make([]float64, 101)
	for i := range sleeps {
		t0 := time.Now()
		time.Sleep(300 * time.Microsecond)
		sleeps[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	sort.Float64s(sleeps)
	h.SleepActualUs = sleeps[len(sleeps)/2]
	return h
}

// repoRoot is the checkout the benchmark runs in: the directory that
// holds BENCHMARK.json, which is the working directory or its parent
// (`go run -C benchmark .` runs the program inside benchmark/).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// outDir is where traces and the WAL's temporary directory go: inside
// the checkout, ignored by git.
func outDir() string {
	dir := filepath.Join(repoRoot(), "benchmark", "out")
	os.MkdirAll(dir, 0o755) //nolint:errcheck — the first write into it reports the failure
	return dir
}
