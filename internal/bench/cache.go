package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// AblationServiceCache evaluates the service-layer result cache (an
// extension beyond the paper's TM-side memoization, §V-B5): concurrent
// clients replay a working set of repeated inputs against a WAN-shaped
// deployment, with the Management Service either dispatching every
// request over the 20.7 ms WAN (cache off) or answering repeats
// locally (cache on). Singleflight also collapses concurrent identical
// requests into one dispatched task.
func AblationServiceCache(cfg Config) (*Table, error) {
	cfg = cfg.Defaults()
	tb, err := NewTestbed(Options{WAN: true, ServiceCache: true})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	ids, err := tb.PublishPaperServables(core.Anonymous, 4, cfg.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Ablation: service-layer result cache under repeated-input load",
		Headers: []string{"servable", "clients", "mode", "p50 request (ms)", "p95 (ms)", "throughput (req/s)", "hit rate"},
	}
	clients := 16
	perClient := cfg.Requests / 2
	if perClient < 10 {
		perClient = 10
	}
	// Working set: a handful of distinct inputs replayed by every
	// client, the shape of a popular model's hot traffic.
	const workingSet = 8

	for _, name := range []string{"matminer-util", "cifar10"} {
		inputs := make([]any, workingSet)
		for i := range inputs {
			g := newInputGen(cfg.Seed + int64(i))
			inputs[i] = g.forServable(name)
		}
		for _, mode := range []string{"off", "on"} {
			tb.MS.FlushCache()
			before := tb.MS.CacheStats()
			lat := metrics.NewSeries("")
			start := time.Now()
			if err := fanOut(clients, func(c int) error {
				for i := 0; i < perClient; i++ {
					opts := core.RunOptions{NoCache: mode == "off"}
					t0 := time.Now()
					if _, err := tb.MS.Run(context.Background(), core.Anonymous, ids[name], inputs[(c+i)%workingSet], opts); err != nil {
						return err
					}
					lat.Add(time.Since(t0))
				}
				return nil
			}); err != nil {
				return nil, err
			}
			makespan := time.Since(start)
			st := lat.Stats()
			after := tb.MS.CacheStats()
			total := clients * perClient
			hits := (after.Hits - before.Hits) + (after.Collapsed - before.Collapsed)
			tput := metrics.Throughput(total, makespan)
			t.Add(name, fmt.Sprint(clients), mode, msDur(st.Median), msDur(st.P95),
				fmt.Sprintf("%.0f", tput), fmt.Sprintf("%.0f%%", 100*float64(hits)/float64(total)))
			cfg.logf("cache: %-16s mode=%-3s p50 %sms p95 %sms throughput %.0f/s hits %d/%d",
				name, mode, msDur(st.Median), msDur(st.P95), tput, hits, total)
		}
	}
	t.Note("%d clients x %d requests over a %d-input working set; WAN RTT %s-shaped", clients, perClient, workingSet, "20.7ms")
	t.Note("extension beyond the paper: the MS answers repeats before routing; TM memoization (§V-B5) still covers per-site repeats")
	return t, nil
}
