// Command dlhub-taskmanager runs a DLHub Task Manager: it connects to a
// Management Service's task queue, stands up a local mini-Kubernetes
// cluster with the requested executors, and serves tasks, up to 8 at
// once: each idle slot is one credit the Management Service pushes a
// task down the connection against, and each task's reply returns it.
// The connection is not re-dialed: when it is lost the Task Manager
// stops and exits with status 1, so a supervisor restarts it and it
// registers afresh.
//
// Example (paper topology, with the measured 20.7 ms WAN RTT shaped
// onto the queue connection):
//
//	dlhub-taskmanager -queue localhost:7000 -id cooley-tm-1 \
//	    -executors parsl,tfserving-grpc -wan-rtt 20.7ms -memoize
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/clipper"
	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/queue"
	"repro/internal/sagemaker"
	"repro/internal/servable"
	"repro/internal/simconst"
	"repro/internal/taskmanager"
	"repro/internal/tfserving"
)

func main() {
	queueAddr := flag.String("queue", "localhost:7000", "Management Service queue address")
	id := flag.String("id", "tm-1", "Task Manager ID")
	nodes := flag.Int("nodes", 14, "Kubernetes cluster nodes (PetrelKube has 14)")
	memoize := flag.Bool("memoize", false, "enable the TM memoization cache")
	executors := flag.String("executors", "parsl", "comma-separated executors: parsl,tfserving-grpc,tfserving-rest,sagemaker,clipper")
	wanRTT := flag.Duration("wan-rtt", 0, "shape the queue connection with this RTT (paper: 20.7ms)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "re-registration interval; heartbeats carry liveness and the executing-task count (0 disables)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiles at /debug/pprof/ on this address (off when empty)")
	flag.Parse()
	if *debugAddr != "" {
		l, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		log.Printf("dlhub-taskmanager: profiles at http://%s/debug/pprof/", l.Addr())
		// Only net/http/pprof registers on the default mux.
		go http.Serve(l, nil) //nolint:errcheck — lives as long as the process
	}

	// Install the built-in "Python modules" (the functions servable
	// containers import), then the cluster substrate.
	servable.RegisterBuiltins()
	registry := container.NewRegistry()
	builder := container.NewBuilder(registry)
	runtime := container.NewRuntime(registry)
	cluster := k8s.NewCluster(runtime, *nodes, k8s.Resources{MilliCPU: 32000, MemMB: 128 * 1024})
	clusterLink := netsim.RTT(simconst.D(simconst.RTTTMToCluster), simconst.LinkBandwidth)

	execs := map[string]executor.Executor{}
	for _, name := range strings.Split(*executors, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "", "parsl":
			execs["parsl"] = executor.NewParsl(cluster, builder, clusterLink)
		case "tfserving-grpc":
			execs[name] = tfserving.New(cluster, builder, clusterLink, tfserving.GRPC)
		case "tfserving-rest":
			execs[name] = tfserving.New(cluster, builder, clusterLink, tfserving.REST)
		case "sagemaker":
			execs[name] = sagemaker.New(cluster, builder, clusterLink)
		case "clipper":
			sys, err := clipper.New(cluster, builder, runtime, clusterLink)
			if err != nil {
				log.Fatalf("clipper: %v", err)
			}
			execs[name] = sys
		default:
			log.Fatalf("unknown executor %q", name)
		}
	}
	if _, ok := execs["parsl"]; !ok {
		execs["parsl"] = executor.NewParsl(cluster, builder, clusterLink)
	}

	// Queue connection, optionally WAN-shaped.
	conn, err := net.DialTimeout("tcp", *queueAddr, 10*time.Second)
	if err != nil {
		log.Fatalf("queue dial: %v", err)
	}
	if *wanRTT > 0 {
		// Only this end of the connection is under our control, so the
		// full RTT is charged on the outbound leg: every request/reply
		// exchange still experiences one RTT.
		conn = netsim.Wrap(conn, netsim.Profile{OneWay: *wanRTT, Bandwidth: simconst.WANBandwidth})
	}
	qc := queue.NewClient(conn)
	defer qc.Close()

	tm, err := taskmanager.New(taskmanager.Config{
		ID:                *id,
		Queue:             qc,
		Executors:         execs,
		Memoize:           *memoize,
		Pullers:           8,
		HeartbeatInterval: *heartbeat,
	})
	if err != nil {
		log.Fatalf("taskmanager: %v", err)
	}
	defer tm.Close()

	names := make([]string, 0, len(execs))
	for n := range execs {
		names = append(names, n)
	}
	fmt.Printf("dlhub-taskmanager %s: %d-node cluster, executors %v, memoize=%v\n",
		*id, *nodes, names, *memoize)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
	case <-qc.Done():
		tm.Close()
		log.Fatalf("dlhub-taskmanager %s: queue connection to %s lost; exiting", *id, *queueAddr)
	}
	done, hits := tm.Stats()
	fmt.Printf("dlhub-taskmanager: shutting down (completed=%d cache_hits=%d)\n", done, hits)
}
