package taskmanager

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/servable"
)

// peakExecutor is the fake executor with a slow Invoke that records
// how many calls were ever in flight at once. Item i of a batch is the
// number i; it answers i and reports i+1 µs of inference, and fails on
// the items named in failOn.
type peakExecutor struct {
	*fakeExecutor
	failOn         map[int]bool
	inFlight, peak atomic.Int32
}

func (p *peakExecutor) Invoke(_ context.Context, _ string, input any) (executor.Result, error) {
	n := p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	i, err := strconv.Atoi(string(input.(json.RawMessage)))
	if err != nil {
		return executor.Result{}, err
	}
	if p.failOn[i] {
		return executor.Result{}, fmt.Errorf("item %d exploded", i)
	}
	return executor.Result{Output: i, InferenceMicros: int64(i + 1)}, nil
}

// startBatchTM starts a Task Manager on ex with dlhub/noop deployed at
// two replicas.
func startBatchTM(t testing.TB, ex executor.Executor) (*TM, *queue.Broker) {
	t.Helper()
	broker := queue.NewBroker(time.Minute)
	tm, err := New(Config{ID: "tm-test", Queue: BrokerAdapter{B: broker}, Executors: map[string]executor.Executor{"parsl": ex}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close(); broker.Close() })
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	if err := ex.Deploy(pkg, 2); err != nil {
		t.Fatal(err)
	}
	return tm, broker
}

func indexInputs(n int) []json.RawMessage {
	inputs := make([]json.RawMessage, n)
	for i := range inputs {
		inputs[i] = json.RawMessage(strconv.Itoa(i))
	}
	return inputs
}

// TestBatchWidthBound pins the batch fan-out: a 100-item batch never
// has more than GOMAXPROCS + replicas items in flight, its outputs come
// back in input order, and its inference time is the sum of its items'.
func TestBatchWidthBound(t *testing.T) {
	ex := &peakExecutor{fakeExecutor: newFakeExecutor()}
	_, broker := startBatchTM(t, ex)
	const n = 100
	rep := request(t, broker, Task{ID: "b", Kind: "run_batch", Servable: "dlhub/noop", Inputs: indexInputs(n)})
	if !rep.OK {
		t.Fatalf("batch: %s", rep.Error)
	}
	width := runtime.GOMAXPROCS(0) + ex.Replicas("dlhub/noop")
	if peak := int(ex.peak.Load()); peak > width || peak < 2 {
		t.Fatalf("%d items were in flight at once, want 2..%d (GOMAXPROCS + replicas)", peak, width)
	}
	if len(rep.Outputs) != n {
		t.Fatalf("want %d outputs, got %d", n, len(rep.Outputs))
	}
	for i, out := range rep.Outputs {
		if out != float64(i) {
			t.Fatalf("output %d = %v: order must be preserved", i, out)
		}
	}
	if want := int64(n * (n + 1) / 2); rep.InferenceMicros != want {
		t.Fatalf("InferenceMicros = %d, want the items' sum %d", rep.InferenceMicros, want)
	}
}

// TestBatchNamesLowestFailure: whichever worker meets its failure
// first, the reply names the lowest failing item.
func TestBatchNamesLowestFailure(t *testing.T) {
	ex := &peakExecutor{fakeExecutor: newFakeExecutor(), failOn: map[int]bool{3: true, 7: true}}
	_, broker := startBatchTM(t, ex)
	rep := request(t, broker, Task{ID: "b", Kind: "run_batch", Servable: "dlhub/noop", Inputs: indexInputs(10)})
	if rep.OK {
		t.Fatal("a batch with failing items must fail")
	}
	if want := "batch item 3: item 3 exploded"; rep.Error != want {
		t.Fatalf("error %q, want %q", rep.Error, want)
	}
}

// nativeExecutor runs a servable in the Task Manager's process, as the
// benchmark's direct executor does: the payload decode is the servable's.
type nativeExecutor struct {
	*fakeExecutor
	sv *servable.Servable
}

func (e *nativeExecutor) Invoke(_ context.Context, _ string, input any) (executor.Result, error) {
	out, err := e.sv.RunNative(input)
	return executor.Result{Output: out}, err
}

// BenchmarkHandleBatch times one batch of 100 inputs of 64 floats each
// (batch-direct's request) through handleBatch on the noop servable.
func BenchmarkHandleBatch(b *testing.B) {
	pkg := servable.NoopPackage()
	sv, err := servable.Load(pkg.Doc, pkg.Components, false)
	if err != nil {
		b.Fatal(err)
	}
	tm, _ := startBatchTM(b, &nativeExecutor{fakeExecutor: newFakeExecutor(), sv: sv})
	r := rand.New(rand.NewSource(1))
	inputs := make([]json.RawMessage, 100)
	for i := range inputs {
		item := []byte{'['}
		for j := range 64 {
			if j > 0 {
				item = append(item, ',')
			}
			item = strconv.AppendFloat(item, r.Float64(), 'f', 6, 64)
		}
		inputs[i] = append(item, ']')
	}
	task := &Task{Kind: "run_batch", Servable: "dlhub/noop", Inputs: inputs}
	b.ReportAllocs()
	for b.Loop() {
		if rep := tm.handleBatch(task); !rep.OK {
			b.Fatal(rep.Error)
		}
	}
}
