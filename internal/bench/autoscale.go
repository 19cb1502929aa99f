package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// AblationAutoscale reproduces the Fig. 7 replica sweep hands-free: the
// paper scales replicas by hand and reports throughput per point; here
// the autoscaler watches demand and converges the replica count itself
// while a synthetic load ramp runs. Three passes over the same ramp:
//
//   - fixed-1:   one replica, no autoscaler — the floor.
//   - fixed-max: hand-scaled to the cap before the ramp — the paper's
//     best manual configuration, the throughput bar to meet.
//   - autoscale: starts at one replica with the controller enabled;
//     replicas must converge upward under load and the steady-phase
//     throughput must land near the hand-scaled run.
//
// The run fails (error, not just a table row) if the autoscaler never
// moves off one replica — convergence is the experiment.
func AblationAutoscale(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	// WAN off, as in Fig. 7: the metric is serving throughput, not WAN
	// transfer.
	tb, err := NewTestbed(Options{WAN: false, AutoscaleInterval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	ids, err := tb.PublishPaperServables(core.Anonymous, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	const model = "cifar10"
	id := ids[model]
	const maxReplicas = 8
	clients := 16
	perClient := cfg.Requests / 2
	if perClient < 20 {
		perClient = 20
	}

	t := &Table{
		Title:   "Ablation: load-driven replica autoscaling vs hand-scaled fixed replicas (Fig. 7, hands-free)",
		Headers: []string{"mode", "replicas start", "replicas end", "p50 request (ms)", "p95 (ms)", "throughput (req/s)", "scale ups/downs"},
	}

	// drive floods the servable with clients×perClient single requests
	// and returns (latency series, makespan).
	drive := func() (*metrics.Series, time.Duration, error) {
		gen := newInputGen(cfg.Seed)
		inputs := make([]any, 64)
		for i := range inputs {
			inputs[i] = gen.forServable(model)
		}
		lat := metrics.NewSeries("")
		var latMu sync.Mutex
		var firstErr atomic.Value
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					t0 := time.Now()
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
					_, err := tb.MS.Run(ctx, core.Anonymous, id, inputs[(c*perClient+i)%len(inputs)], core.RunOptions{NoMemo: true})
					cancel()
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					latMu.Lock()
					lat.Add(time.Since(t0))
					latMu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok {
			return nil, 0, err
		}
		return lat, time.Since(start), nil
	}

	addRow := func(mode string, repStart, repEnd int, lat *metrics.Series, makespan time.Duration, ups, downs uint64) float64 {
		st := lat.Stats()
		tput := metrics.Throughput(clients*perClient, makespan)
		t.Add(mode, fmt.Sprint(repStart), fmt.Sprint(repEnd), msDur(st.Median), msDur(st.P95),
			fmt.Sprintf("%.0f", tput), fmt.Sprintf("%d/%d", ups, downs))
		cfg.logf("autoscale: %-10s replicas %d -> %d  p50 %sms  throughput %.0f/s", mode, repStart, repEnd, msDur(st.Median), tput)
		return tput
	}

	// Pass 1: fixed single replica (the floor Fig. 7 starts from).
	lat, makespan, err := drive()
	if err != nil {
		return nil, fmt.Errorf("autoscale fixed-1: %w", err)
	}
	addRow("fixed-1", 1, tb.ExecutorReplicas("parsl", id), lat, makespan, 0, 0)

	// Pass 2: hand-scaled to the cap, as the paper's operator would.
	if err := tb.MS.Scale(context.Background(), core.Anonymous, id, maxReplicas, "parsl"); err != nil {
		return nil, err
	}
	lat, makespan, err = drive()
	if err != nil {
		return nil, fmt.Errorf("autoscale fixed-%d: %w", maxReplicas, err)
	}
	fixedTput := addRow(fmt.Sprintf("fixed-%d", maxReplicas), maxReplicas, tb.ExecutorReplicas("parsl", id), lat, makespan, 0, 0)

	// Pass 3: back to one replica, controller on, same ramp hands-free.
	if err := tb.MS.Scale(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		return nil, err
	}
	if err := tb.MS.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{
		Enabled:           true,
		MinReplicas:       1,
		MaxReplicas:       maxReplicas,
		TargetLoad:        2,
		ScaleUpCooldown:   200 * time.Millisecond,
		ScaleDownCooldown: 2 * time.Second,
	}); err != nil {
		return nil, err
	}
	lat, makespan, err = drive()
	if err != nil {
		return nil, fmt.Errorf("autoscale run: %w", err)
	}
	endReplicas := tb.ExecutorReplicas("parsl", id)
	status, err := tb.MS.AutoscaleStatus(core.Anonymous, id)
	if err != nil {
		return nil, err
	}
	autoTput := addRow("autoscale", 1, endReplicas, lat, makespan, status.ScaleUps, status.ScaleDowns)

	if endReplicas <= 1 {
		return nil, fmt.Errorf("autoscale: controller never scaled up (still %d replica under %d concurrent clients)", endReplicas, clients)
	}

	t.Note("%d clients x %d requests per pass, %s, memoization off, batch size 1", clients, perClient, model)
	t.Note("autoscale pass starts at 1 replica; controller target-load 2, up-cooldown 200ms, cap %d", maxReplicas)
	t.Note("steady throughput: autoscale %.0f/s vs hand-scaled %.0f/s (ramp tax is the convergence window)", autoTput, fixedTput)
	return t, nil
}
