package taskmanager

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

// roundTrip is one message through the broker under a flat timeout; ok
// is false when it passed without a reply.
func roundTrip(b *queue.Broker, queueName string, body []byte, timeout time.Duration) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reply, err := b.RequestCtx(ctx, queueName, body, "")
	return reply, err == nil
}

// fakeExecutor counts invocations and returns canned outputs. The Task
// Manager hands an executor the payload's bytes; like a servable, the
// fake decodes them itself, and keeps what it was handed for the tests
// that check the bytes arrive untouched.
type fakeExecutor struct {
	mu       sync.Mutex
	deployed map[string]int
	invoked  int
	fail     bool
	got      []any
}

func newFakeExecutor() *fakeExecutor {
	return &fakeExecutor{deployed: make(map[string]int)}
}

func (f *fakeExecutor) Name() string { return "fake" }

func (f *fakeExecutor) Deploy(pkg *servable.Package, replicas int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deployed[pkg.Doc.ID] = replicas
	return nil
}

func (f *fakeExecutor) Scale(id string, replicas int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.deployed[id]; !ok {
		return executor.ErrNotDeployed
	}
	f.deployed[id] = replicas
	return nil
}

func (f *fakeExecutor) Invoke(_ context.Context, id string, input any) (executor.Result, error) {
	f.mu.Lock()
	f.invoked++
	f.got = append(f.got, input)
	fail := f.fail
	_, deployed := f.deployed[id]
	f.mu.Unlock()
	if fail {
		return executor.Result{}, errors.New("executor exploded")
	}
	if !deployed {
		return executor.Result{}, executor.ErrNotDeployed
	}
	if raw, ok := input.(json.RawMessage); ok {
		if err := json.Unmarshal(raw, &input); err != nil {
			return executor.Result{}, err
		}
	}
	return executor.Result{Output: fmt.Sprintf("ran:%v", input), InferenceMicros: 5}, nil
}

func (f *fakeExecutor) Undeploy(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.deployed, id)
	return nil
}

func (f *fakeExecutor) Replicas(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deployed[id]
}

func (f *fakeExecutor) Close() {}

func (f *fakeExecutor) invocations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.invoked
}

func startTM(t *testing.T, memo bool) (*TM, *queue.Broker, *fakeExecutor) {
	t.Helper()
	broker := queue.NewBroker(time.Minute)
	fake := newFakeExecutor()
	tm, err := New(Config{
		ID:        "tm-test",
		Queue:     BrokerAdapter{B: broker},
		Executors: map[string]executor.Executor{"parsl": fake},
		Memoize:   memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close(); broker.Close() })
	return tm, broker, fake
}

func request(t *testing.T, broker *queue.Broker, task Task) Reply {
	t.Helper()
	if _, ok := task.Input.(json.RawMessage); !ok && task.Input != nil {
		raw, err := json.Marshal(task.Input) // the door's one encode
		if err != nil {
			t.Fatal(err)
		}
		task.Input = json.RawMessage(raw)
	}
	body, err := EncodeTask(task)
	if err != nil {
		t.Fatal(err)
	}
	replyBody, ok := roundTrip(broker, TaskQueue("tm-test"), body, 5*time.Second)
	if !ok {
		t.Fatal("request timed out")
	}
	return readReply(t, replyBody)
}

// readReply decodes a reply frame into a Reply whose outputs are Go
// values again.
func readReply(t *testing.T, body []byte) Reply {
	t.Helper()
	d, err := DecodeReply(body)
	if err != nil {
		t.Fatalf("%q: %v", body, err)
	}
	rep := Reply{TaskID: string(d.TaskID), OK: d.OK, Error: string(d.Error), Cached: d.Cached, Steps: d.Steps,
		InferenceMicros: d.InferenceMicros, InvocationMicros: d.InvocationMicros}
	switch {
	case d.Outputs != nil:
		err = json.Unmarshal(d.Outputs, &rep.Outputs)
	case d.Output != nil:
		err = json.Unmarshal(d.Output, &rep.Output)
	}
	if err != nil {
		t.Fatalf("output %q: %v", d.Output, err)
	}
	return rep
}

func rawInputs(docs ...string) []json.RawMessage {
	raws := make([]json.RawMessage, len(docs))
	for i, d := range docs {
		raws[i] = json.RawMessage(d)
	}
	return raws
}

func deployNoop(t *testing.T, broker *queue.Broker) {
	t.Helper()
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "dlhub/noop"
	wire, err := EncodePackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	rep := request(t, broker, Task{ID: "d1", Kind: "deploy", Replicas: 2, Package: wire})
	if !rep.OK {
		t.Fatalf("deploy failed: %s", rep.Error)
	}
}

func TestRegistrationOnStartup(t *testing.T) {
	broker := queue.NewBroker(time.Minute)
	defer broker.Close()
	fake := newFakeExecutor()
	tm, err := New(Config{ID: "tm-a", Queue: BrokerAdapter{B: broker}, Executors: map[string]executor.Executor{"parsl": fake}})
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	msg, ok := broker.Pull(RegisterQueue, time.Second)
	if !ok {
		t.Fatal("registration message missing")
	}
	var reg Registration
	if err := json.Unmarshal(msg.Body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.TMID != "tm-a" || len(reg.Executors) != 1 || reg.Executors[0] != "parsl" {
		t.Fatalf("bad registration: %+v", reg)
	}
}

func TestConfigValidation(t *testing.T) {
	broker := queue.NewBroker(time.Minute)
	defer broker.Close()
	fake := newFakeExecutor()
	if _, err := New(Config{Queue: BrokerAdapter{B: broker}, Executors: map[string]executor.Executor{"parsl": fake}}); err == nil {
		t.Fatal("missing ID should fail")
	}
	if _, err := New(Config{ID: "x", Executors: map[string]executor.Executor{"parsl": fake}}); err == nil {
		t.Fatal("missing queue should fail")
	}
	if _, err := New(Config{ID: "x", Queue: BrokerAdapter{B: broker}}); err == nil {
		t.Fatal("missing executors should fail")
	}
}

func TestPing(t *testing.T) {
	_, broker, _ := startTM(t, false)
	rep := request(t, broker, Task{ID: "p1", Kind: "ping"})
	if !rep.OK || rep.Output != "pong" || rep.TaskID != "p1" {
		t.Fatalf("ping reply wrong: %+v", rep)
	}
}

func TestDeployAndRun(t *testing.T) {
	_, broker, fake := startTM(t, false)
	deployNoop(t, broker)
	if fake.Replicas("dlhub/noop") != 2 {
		t.Fatalf("deploy replicas wrong: %d", fake.Replicas("dlhub/noop"))
	}
	rep := request(t, broker, Task{ID: "r1", Kind: "run", Servable: "dlhub/noop", Input: "x"})
	if !rep.OK || rep.Output != "ran:x" {
		t.Fatalf("run reply wrong: %+v", rep)
	}
	if rep.InvocationMicros <= 0 {
		t.Fatal("invocation time missing")
	}
	if rep.InferenceMicros != 5 {
		t.Fatalf("inference time should pass through, got %d", rep.InferenceMicros)
	}
}

func TestRunUnknownServable(t *testing.T) {
	_, broker, _ := startTM(t, false)
	rep := request(t, broker, Task{ID: "r1", Kind: "run", Servable: "ghost", Input: 1})
	if rep.OK {
		t.Fatal("unknown servable should fail")
	}
}

func TestMemoization(t *testing.T) {
	tm, broker, fake := startTM(t, true)
	deployNoop(t, broker)
	r1 := request(t, broker, Task{ID: "a", Kind: "run", Servable: "dlhub/noop", Input: "same"})
	r2 := request(t, broker, Task{ID: "b", Kind: "run", Servable: "dlhub/noop", Input: "same"})
	if r1.Cached {
		t.Fatal("first request should miss")
	}
	if !r2.Cached {
		t.Fatal("second identical request should hit the TM cache")
	}
	if r2.Output != r1.Output {
		t.Fatal("cached output must match")
	}
	if got := fake.invocations(); got != 1 {
		t.Fatalf("executor should only see the miss, saw %d", got)
	}
	// Different input misses.
	r3 := request(t, broker, Task{ID: "c", Kind: "run", Servable: "dlhub/noop", Input: "other"})
	if r3.Cached {
		t.Fatal("different input should miss")
	}
	// NoMemo bypasses the cache.
	r4 := request(t, broker, Task{ID: "d", Kind: "run", Servable: "dlhub/noop", Input: "same", NoMemo: true})
	if r4.Cached {
		t.Fatal("NoMemo request must not be served from cache")
	}
	_, hits := tm.Stats()
	if hits != 1 {
		t.Fatalf("want 1 hit, got %d", hits)
	}
}

// TestPayloadPassesThroughUndecoded pins the Task Manager's side of the
// payload path: an executor is handed the input's bytes exactly as the
// task carried them (number text, member order and all), a batch's one
// by one, and the memo is keyed by those bytes — which the Management
// Service's door has compacted, and the task encode compacts an input
// that would break its line, so padding still hits.
func TestPayloadPassesThroughUndecoded(t *testing.T) {
	tm, broker, fake := startTM(t, true)
	deployNoop(t, broker)
	const doc = `{"b":9007199254740993,"a":[1e-7,"\u00e9"]}`
	rep := request(t, broker, Task{ID: "a", Kind: "run", Servable: "dlhub/noop", Input: json.RawMessage(doc)})
	if !rep.OK || rep.Cached {
		t.Fatalf("first run: %+v", rep)
	}
	padded := json.RawMessage("{\n  \"b\" : 9007199254740993,\n  \"a\" : [ 1e-7, \"\\u00e9\" ]\n}")
	if rep := request(t, broker, Task{ID: "b", Kind: "run", Servable: "dlhub/noop", Input: padded}); !rep.Cached {
		t.Fatal("a whitespace-padded input should hit the memo of its compact form")
	}
	rep = request(t, broker, Task{ID: "c", Kind: "run_batch", Servable: "dlhub/noop", Inputs: rawInputs(doc, `null`)})
	if !rep.OK {
		t.Fatalf("batch: %+v", rep)
	}
	if _, hits := tm.Stats(); hits != 1 {
		t.Fatalf("want 1 memo hit, got %d", hits)
	}
	fake.mu.Lock()
	defer fake.mu.Unlock()
	var got []string
	for _, in := range fake.got {
		raw, ok := in.(json.RawMessage)
		if !ok {
			t.Fatalf("executor was handed a %T, want the payload's bytes", in)
		}
		got = append(got, string(raw))
	}
	if len(got) != 3 || got[0] != doc {
		t.Fatalf("executor saw %q", got)
	}
	// The batch fans out concurrently: either order.
	if !(got[1] == doc && got[2] == "null") && !(got[1] == "null" && got[2] == doc) {
		t.Fatalf("batch items arrived as %q", got[1:])
	}
}

func TestSetMemoizeClearsCache(t *testing.T) {
	tm, broker, _ := startTM(t, true)
	deployNoop(t, broker)
	request(t, broker, Task{ID: "a", Kind: "run", Servable: "dlhub/noop", Input: "x"})
	tm.SetMemoize(false)
	tm.SetMemoize(true)
	rep := request(t, broker, Task{ID: "b", Kind: "run", Servable: "dlhub/noop", Input: "x"})
	if rep.Cached {
		t.Fatal("cache should have been cleared")
	}
}

func TestBatch(t *testing.T) {
	_, broker, fake := startTM(t, false)
	deployNoop(t, broker)
	inputs := []string{"a", "b", "c", "d"}
	rep := request(t, broker, Task{ID: "bt", Kind: "run_batch", Servable: "dlhub/noop", Inputs: rawInputs(`"a"`, `"b"`, `"c"`, `"d"`)})
	if !rep.OK {
		t.Fatalf("batch failed: %s", rep.Error)
	}
	if len(rep.Outputs) != 4 {
		t.Fatalf("want 4 outputs, got %d", len(rep.Outputs))
	}
	for i, out := range rep.Outputs {
		want := fmt.Sprintf("ran:%v", inputs[i])
		if out != want {
			t.Fatalf("output %d = %v, want %s (order must be preserved)", i, out, want)
		}
	}
	if fake.invocations() != 4 {
		t.Fatalf("executor should see 4 invocations, saw %d", fake.invocations())
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, broker, fake := startTM(t, false)
	deployNoop(t, broker)
	fake.fail = true
	rep := request(t, broker, Task{ID: "bt", Kind: "run_batch", Servable: "dlhub/noop", Inputs: rawInputs(`"a"`, `"b"`)})
	if rep.OK {
		t.Fatal("batch with failures should report failure")
	}
	if !strings.Contains(rep.Error, "exploded") {
		t.Fatalf("error should propagate: %s", rep.Error)
	}
}

func TestPipelineChainsOutputs(t *testing.T) {
	_, broker, _ := startTM(t, false)
	// Deploy two steps.
	for _, name := range []string{"s1", "s2"} {
		pkg := servable.NoopPackage()
		pkg.Doc.ID = "dlhub/" + name
		pkg.Doc.Publication.Name = name
		wire, _ := EncodePackage(pkg)
		rep := request(t, broker, Task{ID: "d-" + name, Kind: "deploy", Replicas: 1, Package: wire})
		if !rep.OK {
			t.Fatalf("deploy %s failed: %s", name, rep.Error)
		}
	}
	rep := request(t, broker, Task{ID: "pl", Kind: "pipeline", Input: "in", Steps: []string{"dlhub/s1", "dlhub/s2"}})
	if !rep.OK {
		t.Fatalf("pipeline failed: %s", rep.Error)
	}
	// fake executor: s1 output "ran:in" feeds s2 -> "ran:ran:in".
	if rep.Output != "ran:ran:in" {
		t.Fatalf("pipeline should chain outputs, got %v", rep.Output)
	}
}

func TestPipelineTooShort(t *testing.T) {
	_, broker, _ := startTM(t, false)
	rep := request(t, broker, Task{ID: "pl", Kind: "pipeline", Steps: []string{"one"}})
	if rep.OK {
		t.Fatal("single-step pipeline should fail")
	}
}

func TestScaleAndUndeployTasks(t *testing.T) {
	_, broker, fake := startTM(t, false)
	deployNoop(t, broker)
	rep := request(t, broker, Task{ID: "s", Kind: "scale", Servable: "dlhub/noop", Replicas: 7})
	if !rep.OK {
		t.Fatalf("scale failed: %s", rep.Error)
	}
	if fake.Replicas("dlhub/noop") != 7 {
		t.Fatalf("scale not applied: %d", fake.Replicas("dlhub/noop"))
	}
	rep = request(t, broker, Task{ID: "u", Kind: "undeploy", Servable: "dlhub/noop"})
	if !rep.OK {
		t.Fatalf("undeploy failed: %s", rep.Error)
	}
	rep = request(t, broker, Task{ID: "r", Kind: "run", Servable: "dlhub/noop", Input: 1})
	if rep.OK {
		t.Fatal("run after undeploy should fail")
	}
}

func TestUnknownKind(t *testing.T) {
	_, broker, _ := startTM(t, false)
	rep := request(t, broker, Task{ID: "x", Kind: "dance"})
	if rep.OK || !strings.Contains(rep.Error, "unknown task kind") {
		t.Fatalf("unknown kind should fail: %+v", rep)
	}
}

func TestBadTaskJSON(t *testing.T) {
	_, broker, _ := startTM(t, false)
	replyBody, ok := roundTrip(broker, TaskQueue("tm-test"), []byte("{not json"), 5*time.Second)
	if !ok {
		t.Fatal("should still reply to malformed tasks")
	}
	if rep := readReply(t, replyBody); rep.OK || !strings.HasPrefix(rep.Error, "bad task") {
		t.Fatalf("malformed task should fail: %+v", rep)
	}
}

func TestUnknownExecutorRoute(t *testing.T) {
	_, broker, _ := startTM(t, false)
	deployNoop(t, broker)
	rep := request(t, broker, Task{ID: "x", Kind: "run", Servable: "dlhub/noop", Executor: "tfserving-grpc"})
	if rep.OK || !strings.Contains(rep.Error, "not available") {
		t.Fatalf("unknown route should fail: %+v", rep)
	}
}

func TestConcurrentTasks(t *testing.T) {
	_, broker, _ := startTM(t, false)
	deployNoop(t, broker)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(Task{ID: fmt.Sprintf("c%d", i), Kind: "run", Servable: "dlhub/noop", Input: i})
			replyBody, ok := roundTrip(broker, TaskQueue("tm-test"), body, 5*time.Second)
			if !ok {
				errs[i] = errors.New("timeout")
				return
			}
			if rep, err := DecodeReply(replyBody); err != nil || !rep.OK {
				errs[i] = fmt.Errorf("bad reply: %+v %v", rep, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPackageRoundTrip(t *testing.T) {
	pkg, err := servable.CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	pkg.Doc.ID = "u/cifar10"
	wire, err := EncodePackage(pkg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePackage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Doc.ID != "u/cifar10" || len(back.Components["model"]) != len(pkg.Components["model"]) {
		t.Fatal("package round trip lost data")
	}
	if _, err := DecodePackage(&PackageWire{Doc: []byte("zzz")}); err == nil {
		t.Fatal("bad doc should fail")
	}
}
