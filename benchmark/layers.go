package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/rpc"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/servable"
	"repro/internal/simconst"
	"repro/internal/store"
	"repro/internal/taskmanager"
)

// The isolated drivers price one layer's public functions on their own,
// with nothing else running: time and heap objects per call. They say
// what a layer costs; the traced pass says what share of a request it is.

// timeCalls calls fn for about d and returns µs and heap objects per call.
func timeCalls(d time.Duration, fn func() error) (us, allocs float64, err error) {
	for i := 0; i < 8; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	// A driver makes few enough objects for the counters' lag to show;
	// a collection makes every P hand its spans back and be counted.
	runtime.GC()
	before, begin, calls := readHeapAllocs(), time.Now(), 0
	for time.Since(begin) < d {
		for i := 0; i < 8; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		calls += 8
	}
	elapsed := time.Since(begin)
	runtime.GC()
	after := readHeapAllocs()
	return float64(elapsed) / float64(time.Microsecond) / float64(calls),
		float64(after.objects-before.objects) / float64(calls), nil
}

// adder times one driver and adds its two metrics to the result.
type adder func(name string, fn func() error) error

// runDrivers runs every isolated driver and returns its two metrics.
func runDrivers(p params) ([]metric, error) {
	runtime.GOMAXPROCS(procs)
	var out []metric
	add := func(name string, fn func() error) error {
		us, allocs, err := timeCalls(p.driverTime, fn)
		if err != nil {
			return fmt.Errorf("driver %s: %w", name, err)
		}
		out = append(out, metric{name + "_us_per_call", "us", us}, metric{name + "_allocs_per_call", "count", allocs})
		return nil
	}
	for _, group := range []func(adder) error{
		transportDrivers, p.coreDrivers, walDriver, taskManagerDriver, parslDriver,
	} {
		if err := group(add); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// echoConsumer answers every message on queue "q" with its own body, the
// way a Task Manager that does no work would.
func echoConsumer(q taskmanager.QueueAPI, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if msg, ok, err := q.Pull("q", 50*time.Millisecond); err == nil && ok {
				q.Reply(msg, msg.Body) //nolint:errcheck — a lost reply fails the requester
			}
		}
	}()
	return done
}

// transportDrivers prices one request/reply through the broker alone,
// through the broker with the consumer on the loopback TCP transport
// (dlhub-server <-> dlhub-taskmanager), and one bare rpc call.
func transportDrivers(add adder) error {
	ctx := context.Background()
	payload := []byte(`{"id":"0123456789abcdef","kind":"run","servable":"bench/noop","input":"k000000000000000"}`)
	request := func(b *queue.Broker) func() error {
		return func() error {
			_, err := b.RequestCtx(ctx, "q", payload, "")
			return err
		}
	}

	b := queue.NewBroker(time.Minute)
	stop := make(chan struct{})
	done := echoConsumer(taskmanager.BrokerAdapter{B: b}, stop)
	err := add("queue.broker_roundtrip", request(b))
	close(stop)
	<-done
	b.Close()
	if err != nil {
		return err
	}

	b = queue.NewBroker(time.Minute)
	defer b.Close()
	srv := queue.NewServer(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(l) //nolint:errcheck — ends when the server closes
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	qc := queue.NewClient(conn)
	stop = make(chan struct{})
	done = echoConsumer(qc, stop)
	err = add("queue.tcp_roundtrip", request(b))
	close(stop)
	<-done
	qc.Close()
	if err != nil {
		return err
	}

	echo := rpc.NewServer()
	echo.Handle("echo", func(_ context.Context, in []byte) ([]byte, error) { return in, nil })
	el, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go echo.Serve(el) //nolint:errcheck — ends when the server closes
	defer echo.Close()
	rc, err := rpc.Dial(el.Addr().String())
	if err != nil {
		return err
	}
	defer rc.Close()
	return add("rpc.call", func() error {
		_, err := rc.Call(ctx, "echo", payload)
		return err
	})
}

// coreDrivers call the Management Service in process: no HTTP, and an
// in-process Task Manager on the broker (no TCP transport).
func (p params) coreDrivers(add adder) error {
	st, err := newStack(stackConfig{catalogue: 200, inprocQueue: true}, p.seed, nil)
	if err != nil {
		return err
	}
	defer st.close()
	ctx := context.Background()
	ms, noop := st.ms, st.owner+"/noop"
	n := 0
	entry := func() *catalogueEntry {
		n++
		return &st.docs[n%len(st.docs)]
	}
	for _, d := range []struct {
		name string
		fn   func() error
	}{
		{"auth.resolve", func() error {
			_, err := ms.ResolveCaller(st.auth)
			return err
		}},
		{"core.run_inproc_miss", func() error {
			n++
			_, err := ms.Run(ctx, st.caller, noop, "miss-"+strconv.Itoa(n), core.RunOptions{})
			return err
		}},
		{"core.run_inproc_hit", func() error {
			_, err := ms.Run(ctx, st.caller, noop, "hit", core.RunOptions{})
			return err
		}},
		{"core.publish", func() error {
			doc := *entry().pkg.Doc // Publish keeps the document it is given
			_, err := ms.Publish(ctx, st.caller, &servable.Package{Doc: &doc})
			return err
		}},
		{"core.update", func() error {
			return ms.UpdateMetadata(st.caller, entry().id, func(pub *schema.Publication) {
				pub.Description = "revised by the driver, revision " + strconv.Itoa(n)
			})
		}},
		{"core.search", func() error {
			n++
			_, err := ms.Search(ctx, st.caller, search.Query{
				Must: []search.Clause{{FreeText: titleWords[n%len(titleWords)]}}, Limit: 10})
			return err
		}},
	} {
		if err := add(d.name, d.fn); err != nil {
			return err
		}
	}
	return nil
}

// walDriver appends repository-sized records to a WAL with fsync and
// compaction off: the append path itself, not the disk.
func walDriver(add adder) error {
	dir, err := os.MkdirTemp(outDir(), "wal-driver-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := store.Open(store.Options{Dir: dir, Sync: false, CompactEvery: -1, CompactBytes: -1})
	if err != nil {
		return err
	}
	defer w.Close()
	w.SetCheckpointer(func(io.Writer) error { return nil })
	if _, err := w.Recover(func(io.Reader) error { return nil }, func(store.Record) error { return nil }); err != nil {
		return err
	}
	rec := store.Record{Kind: "metadata", Data: make([]byte, 512)}
	return add("store.wal_append", func() error { return w.Append(rec) })
}

// feed is a fake broker connection that hands the Task Manager one run
// task at a time and reports when its reply comes back.
type feed struct {
	tasks   chan queue.Message
	replied chan struct{}
}

func (f *feed) Push(string, []byte, string, string, string) (string, error) { return "", nil }
func (f *feed) Ack(string, string) error                                    { return nil }

func (f *feed) Pull(_ string, timeout time.Duration) (queue.Message, bool, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m := <-f.tasks:
		return m, true, nil
	case <-t.C:
		return queue.Message{}, false, nil
	}
}

func (f *feed) Reply(queue.Message, []byte) error {
	f.replied <- struct{}{}
	return nil
}

// taskManagerDriver prices the TM's pull -> handle -> reply loop with
// the queue faked and the sim-free executor behind it.
func taskManagerDriver(add adder) error {
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "bench/noop"
	ex := newDirect()
	if err := ex.Deploy(pkg, 1); err != nil {
		return err
	}
	f := &feed{tasks: make(chan queue.Message), replied: make(chan struct{})}
	tm, err := taskmanager.New(taskmanager.Config{
		ID: "tm-driver", Queue: f, Executors: map[string]executor.Executor{"direct": ex}, Pullers: 1,
	})
	if err != nil {
		return err
	}
	defer tm.Close()
	body, err := json.Marshal(taskmanager.Task{ID: "0123456789abcdef", Kind: "run", Servable: pkg.Doc.ID, Executor: "direct", Input: "k000000000000000"})
	if err != nil {
		return err
	}
	msg := queue.Message{ID: "m", Queue: "dlhub.tasks.tm-driver", Body: body, ReplyTo: "reply.x"}
	return add("taskmanager.pull_handle_reply", func() error {
		f.tasks <- msg
		<-f.replied
		return nil
	})
}

// parslDriver invokes noop through the paper's Parsl executor on a
// one-node cluster: what the simulated dispatch, link and interpreter
// cost per call, measured rather than nominal.
func parslDriver(add adder) error {
	simconst.Scale = 1
	registry := container.NewRegistry()
	rt := container.NewRuntime(registry)
	rt.RegisterProcess("dlhub-ipp-engine", executor.NewPodProcessFactory(true))
	cluster := k8s.NewCluster(rt, 1, k8s.Resources{MilliCPU: 32000, MemMB: 64 * 1024})
	parsl := executor.NewParsl(cluster, container.NewBuilder(registry),
		netsim.RTT(simconst.D(simconst.RTTTMToCluster), simconst.LinkBandwidth))
	defer parsl.Close()
	pkg := servable.NoopPackage()
	pkg.Doc.ID = "bench/noop"
	if err := parsl.Deploy(pkg, 1); err != nil {
		return err
	}
	ctx := context.Background()
	return add("executor.parsl_invoke", func() error {
		_, err := parsl.Invoke(ctx, pkg.Doc.ID, "k000000000000000")
		return err
	})
}
