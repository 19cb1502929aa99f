package bench

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pyruntime"
	"repro/internal/schema"
	"repro/internal/servable"
)

// TestRestartMSInflightDispatchFailsFast pins the agreement between
// Testbed.RestartMS's kill path and the per-TM liveness watcher: a
// request dispatched to a TM that RestartMS kills while the Management
// Service goes down must surface an error promptly — via the watcher's
// errTMLost broadcast or the closing service's lifetime cancellation —
// not hang until the 120s TaskTimeout. A fresh request against the
// recovered service must then succeed end to end.
func TestRestartMSInflightDispatchFailsFast(t *testing.T) {
	tb, err := NewTestbed(Options{
		Nodes:        4,
		DataDir:      t.TempDir(),
		Heartbeat:    100 * time.Millisecond,
		TMStaleAfter: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// A servable slow enough that the restart provably lands while the
	// dispatch is in flight.
	release := make(chan struct{})
	pyruntime.Register("test:block-for-restart", func(arg any) (any, error) {
		select {
		case <-release:
		case <-time.After(30 * time.Second):
		}
		return "late", nil
	})
	defer close(release)
	ctx := context.Background()
	id, err := tb.MS.Publish(ctx, core.Anonymous, &servable.Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:      "block-for-restart",
				Title:     "in-flight restart regression",
				Authors:   []string{"bench"},
				VisibleTo: []string{"public"},
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  "test:block-for-restart",
				Input:  schema.DataType{Kind: "string"},
				Output: schema.DataType{Kind: "string"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(ctx, core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}

	runErr := make(chan error, 1)
	go func() {
		_, err := tb.Service().Run(ctx, core.Anonymous, id, "x", core.RunOptions{})
		runErr <- err
	}()
	// Wait until the dispatch is actually in flight on the TM.
	deadline := time.Now().Add(5 * time.Second)
	for tb.MS.WatcherStats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatch never reached the TM")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := tb.RestartMS(); err != nil {
		t.Fatalf("RestartMS: %v", err)
	}
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("in-flight run against the killed TM should fail, got success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight dispatch hung past the liveness window — watcher and restart kill path disagree")
	}

	// The recovered service re-learned the placement from the WAL and
	// the restarted TM re-registered: a fast servable serves normally.
	fastID, err := tb.Service().Publish(ctx, core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Service().Deploy(ctx, core.Anonymous, fastID, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Service().Run(ctx, core.Anonymous, fastID, "y", core.RunOptions{}); err != nil {
		t.Fatalf("post-restart run failed: %v", err)
	}
}
