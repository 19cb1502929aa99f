package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestReadResponse(t *testing.T) {
	const chunked = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Request-ID: abc\r\n\r\n" +
		"5\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"
	const sized = "HTTP/1.1 201 Created\r\ncontent-length: 11\r\n\r\nhello world"
	for _, tc := range []struct {
		name, wire string
		status     int
		body       string
		err        error
	}{
		{"content-length", sized, 201, "hello world", nil},
		{"chunked", chunked, 200, "hello world", nil},
		{"empty body", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 200, "", nil},
		{"body cut short", sized[:len(sized)-3], 0, "", io.ErrUnexpectedEOF},
		{"chunk cut short", chunked[:len(chunked)-25], 0, "", io.ErrUnexpectedEOF},
		{"headers cut short", sized[:30], 0, "", io.ErrUnexpectedEOF},
		{"nothing", "", 0, "", io.ErrUnexpectedEOF},
	} {
		// One byte per Read: the parser must not assume a response
		// arrives in one piece.
		wire, reads := tc.wire, 1
		if tc.err == nil {
			// Twice: the parser must stop exactly at the message boundary.
			wire, reads = tc.wire+tc.wire, 2
		}
		br := bufio.NewReader(iotest.OneByteReader(strings.NewReader(wire)))
		for i := 0; i < reads; i++ {
			status, body, err := readResponse(br, nil)
			if !errors.Is(err, tc.err) || err == nil && (status != tc.status || string(body) != tc.body) {
				t.Errorf("%s #%d: got %d %q %v, want %d %q %v", tc.name, i, status, body, err, tc.status, tc.body, tc.err)
			}
		}
	}
	if _, _, err := readResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\n\r\nhello")), nil); err == nil {
		t.Error("a response with neither Content-Length nor chunked encoding was accepted")
	}
}

func TestVerify(t *testing.T) {
	single := op{status: 200, want: []byte(`"output":"hello world"`)}
	batch := op{status: 200, want: []byte(`"hello world"`), wantCount: 2}
	ok := []byte(`{"data":{"output":"hello world"},"request_id":"r"}`)
	for _, tc := range []struct {
		name   string
		o      op
		status int
		body   string
		good   bool
	}{
		{"right output", single, 200, string(ok), true},
		{"wrong status", single, 502, string(ok), false},
		{"wrong output", single, 200, `{"data":{"output":"goodbye"}}`, false},
		{"error envelope", single, 200, `{"error":{"code":"x"},"data":{"output":"hello world"}}`, false},
		{"full batch", batch, 200, `{"data":{"outputs":["hello world","hello world"]}}`, true},
		{"short batch", batch, 200, `{"data":{"outputs":["hello world"]}}`, false},
	} {
		if err := tc.o.verify(tc.status, []byte(tc.body)); (err == nil) != tc.good {
			t.Errorf("%s: verify = %v", tc.name, err)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(in []struct{ Name string }) (out []string) {
		for _, m := range in {
			out = append(out, m.Name)
		}
		return out
	}
	return names(spec.Workloads), names(spec.EndToEnd), names(spec.PerLayer)
}

func smokeParams() params {
	p := defaultParams()
	p.window, p.setups, p.driverTime, p.host = 300*time.Millisecond, 1, 20*time.Millisecond, measureHost()
	return p
}

// mayBeZero lists the per-layer metrics that are legitimately 0: the
// layer is not on the workload's path, or it costs less than the clock
// resolves.
func mayBeZero(workload, metric string) bool {
	switch metric {
	case "sim.injected_p50_us":
		return workload != "paper-wan"
	case "core.cache_hit_ratio", "core.cache_evictions_per_op", "servable.inference_p50_us",
		"executor.self_p50_us", "process.gc_per_1k_ops", "queue.empty_pulls_per_s":
		return true
	case "trace.overhead_pct":
		return true // a difference of two noisy medians; may even be negative
	case "taskmanager.self_p50_us", "queue.pulls_per_op":
		// The testbed's Task Manager cannot be wrapped from outside.
		return workload == "paper-wan" || workload == "hotkey-direct" || workload == "repo-mixed"
	case "core.dispatches_per_op", "queue.transit_p50_us", "executor.invokes_per_op":
		return workload == "hotkey-direct" || workload == "repo-mixed"
	}
	return false
}

func valueOf(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("metric %s not emitted", name)
	return 0
}

// TestSmoke runs every workload end to end and traced with a short
// window, and checks that exactly the metrics
// BENCHMARK.json names come out, finite and positive.
func TestSmoke(t *testing.T) {
	workloadNames, endToEnd, perLayer := benchmarkNames(t)
	if len(workloadNames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(workloadNames), len(workloads))
	}
	p := smokeParams()
	drivers, err := runDrivers(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w := workloadByName(name)
		if w == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", name)
			continue
		}
		for _, traced := range []bool{false, true} {
			p.traced = traced
			res, err := runWorkload(w, p)
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
				continue
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed: %v", name, traced, res.attempted, res.failed, res.firstErr)
			}
			want, got := endToEnd, res.metrics
			if traced {
				want, got = perLayer, append(res.metrics, drivers...)
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", name, traced, len(got), len(want))
			}
			for _, metric := range want {
				v := valueOf(t, got, metric)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 && metric != "trace.overhead_pct" || v == 0 && !mayBeZero(name, metric) {
					t.Errorf("%s: %s = %v", name, metric, v)
				}
			}
			if !traced {
				continue
			}
			hits := valueOf(t, got, "core.cache_hit_ratio")
			switch {
			case name == "hotkey-direct" && hits < 0.99:
				t.Errorf("hotkey-direct: cache hit ratio %v, want >= 0.99", hits)
			case (name == "run-direct" || name == "batch-direct") && hits != 0:
				t.Errorf("%s: cache hit ratio %v, want 0", name, hits)
			}
			if name == "run-direct" {
				// Every request takes the same path, so the layers'
				// median self times must add up to the median round trip.
				sum := 0.0
				for _, layer := range []string{"http", "core", "taskmanager", "executor"} {
					sum += valueOf(t, got, layer+".self_p50_us")
				}
				sum += valueOf(t, got, "queue.transit_p50_us") + valueOf(t, got, "servable.inference_p50_us")
				client := valueOf(t, got, "client.latency_p50_ms") * 1000
				if math.Abs(sum-client) > 0.10*client {
					t.Errorf("run-direct: layer self times sum to %.1f us, client p50 is %.1f us", sum, client)
				}
			}
		}
	}
}

// TestWrongOutputFails checks the checker: a run that expects an output
// the servable does not produce must not succeed.
func TestWrongOutputFails(t *testing.T) {
	p := smokeParams()
	p.expect = "goodbye world"
	if _, err := runWorkload(workloadByName("run-direct"), p); err == nil {
		t.Fatal("a run expecting the wrong output succeeded")
	}
}

// TestQuantile pins quantile to Python's statistics.quantiles(n=4),
// whose values these are.
func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		sorted []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}, [3]float64{3.5, 13.5, 31}},
		{[]float64{1, 2, 3, 5, 9}, [3]float64{1.5, 3, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		for i, want := range tc.want {
			if got := quantile(tc.sorted, i+1); got != want {
				t.Errorf("quartile %d of %v = %v, want %v", i+1, tc.sorted, got, want)
			}
		}
	}
}
