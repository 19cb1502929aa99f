package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pyruntime"
	"repro/internal/schema"
	"repro/internal/servable"
)

// sleepPackage publishes a python_function servable that holds its
// single-threaded pod for d per request — a deterministic load
// generator for autoscaler and admission tests (real models would burn
// CPU for the same effect).
func sleepPackage(t *testing.T, name string, d time.Duration) *servable.Package {
	t.Helper()
	entry := "test-sleep:" + name
	pyruntime.Register(entry, func(arg any) (any, error) {
		time.Sleep(d)
		return "slept", nil
	})
	return &servable.Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:      name,
				Title:     "sleeper",
				Authors:   []string{"test"},
				VisibleTo: []string{"public"},
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  entry,
				Input:  schema.DataType{Kind: "string"},
				Output: schema.DataType{Kind: "string"},
			},
		},
	}
}

// steadyLoad runs clients goroutines issuing back-to-back distinct-input
// runs until the returned stop func is called; every error except the
// shutdown races is fatal.
func steadyLoad(t *testing.T, tb *bench.Testbed, id string, clients int) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var seq atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				input := fmt.Sprintf("input-%d", seq.Add(1))
				_, err := tb.MS.Run(context.Background(), core.Anonymous, id, input, core.RunOptions{NoMemo: true})
				if err != nil && !errors.Is(err, core.ErrCanceled) && !errors.Is(err, core.ErrTimeout) {
					select {
					case <-done:
						return
					default:
						t.Errorf("load run: %v", err)
						return
					}
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestAutoscalerScaleUpSteadyNoFlapScaleDown drives the full controller
// episode: a load ramp must scale replicas up, steady load must hold
// them there without flapping, and sustained idleness must scale back
// down after the cooldown.
func TestAutoscalerScaleUpSteadyNoFlapScaleDown(t *testing.T) {
	tb := newTB(t, bench.Options{AutoscaleInterval: 25 * time.Millisecond})
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, sleepPackage(t, "scaler", 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{
		Enabled:           true,
		MinReplicas:       1,
		MaxReplicas:       4,
		TargetLoad:        2,
		ScaleUpCooldown:   50 * time.Millisecond,
		ScaleDownCooldown: 400 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// Ramp: 8 clients against a 10ms-serial servable -> demand ~8 ->
	// desired ceil(8/2) = 4.
	stop := steadyLoad(t, tb, id, 8)
	waitFor(t, 10*time.Second, func() bool {
		return tb.MS.DesiredReplicas(id) == 4 && tb.ExecutorReplicas("parsl", id) == 4
	})

	// Steady phase: the load has not changed, so the controller must
	// not move — no flapping.
	upsBefore := mustStatus(t, tb, id).ScaleUps
	time.Sleep(800 * time.Millisecond)
	st := mustStatus(t, tb, id)
	if got := tb.MS.DesiredReplicas(id); got != 4 {
		t.Fatalf("replicas moved under steady load: %d", got)
	}
	if st.ScaleDowns != 0 {
		t.Fatalf("scaled down under steady load: %+v", st)
	}
	if st.ScaleUps != upsBefore {
		t.Fatalf("scale-ups continued under steady load: %d -> %d", upsBefore, st.ScaleUps)
	}
	stop()

	// Idle: after ScaleDownCooldown of low demand the controller sheds
	// replicas back to the floor.
	waitFor(t, 10*time.Second, func() bool {
		return tb.MS.DesiredReplicas(id) == 1
	})
	st = mustStatus(t, tb, id)
	if st.ScaleDowns == 0 {
		t.Fatalf("expected a recorded scale-down: %+v", st)
	}
	// And it stays down: no phantom demand re-scaling an idle servable.
	time.Sleep(500 * time.Millisecond)
	if got := tb.MS.DesiredReplicas(id); got != 1 {
		t.Fatalf("idle servable re-scaled to %d", got)
	}
}

func mustStatus(t *testing.T, tb *bench.Testbed, id string) core.AutoscaleStatus {
	t.Helper()
	st, err := tb.MS.AutoscaleStatus(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAutoscalerDisabledPolicyDoesNotScale pins that installing a
// disabled policy leaves scaling entirely manual.
func TestAutoscalerDisabledPolicyDoesNotScale(t *testing.T) {
	tb := newTB(t, bench.Options{AutoscaleInterval: 25 * time.Millisecond})
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, sleepPackage(t, "manual", 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{Enabled: false, MaxReplicas: 4}); err != nil {
		t.Fatal(err)
	}
	stop := steadyLoad(t, tb, id, 8)
	time.Sleep(400 * time.Millisecond)
	stop()
	if got := tb.MS.DesiredReplicas(id); got != 1 {
		t.Fatalf("disabled policy scaled to %d", got)
	}
}

// TestAdmissionControl429 exercises backpressure end to end through
// /api/v2: once pending demand reaches the MaxQueue bound, new runs get
// an enveloped 429 with code "overloaded" while earlier requests still
// complete.
func TestAdmissionControl429(t *testing.T) {
	tb := newTB(t, bench.Options{})
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, sleepPackage(t, "bounded", 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	// Admission without autoscaling: a disabled policy still carries
	// the MaxQueue bound.
	if err := tb.MS.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{MaxQueue: 2}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(tb.MS.Handler())
	defer srv.Close()
	url := srv.URL + "/api/v2/servables/" + id + "/run"

	const n = 12
	var ok200, ok429 atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := strings.NewReader(fmt.Sprintf(`{"input":"x-%d","no_memo":true}`, i))
			resp, err := http.Post(url, "application/json", body) //nolint:noctx
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var env struct {
				Error *core.EnvelopeError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Errorf("run %d: bad body: %v", i, err)
				return
			}
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				ok429.Add(1)
				if env.Error == nil || env.Error.Code != string(core.CodeOverloaded) {
					t.Errorf("run %d: 429 without overloaded code: %+v", i, env.Error)
				}
			default:
				t.Errorf("run %d: unexpected status %d (%+v)", i, resp.StatusCode, env.Error)
			}
		}(i)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("admission control rejected everything — bound applied too early")
	}
	if ok429.Load() == 0 {
		t.Fatalf("no request was shed at bound 2 with %d concurrent callers", n)
	}
	if st := mustStatus(t, tb, id); st.Rejected == 0 {
		t.Fatalf("rejections not counted in autoscale status: %+v", st)
	}
}

// TestAdmissionBurstAtomicity pins the check-AND-reserve property: a
// perfectly simultaneous burst must admit at most MaxQueue requests.
// All clients pass the admission gate within microseconds of each
// other while the servable takes 300ms per request, so no admitted
// request can release its slot inside the admission window — a
// read-then-dispatch implementation would admit the whole burst.
func TestAdmissionBurstAtomicity(t *testing.T) {
	tb := newTB(t, bench.Options{})
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, sleepPackage(t, "burst", 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	const bound = 2
	if err := tb.MS.SetAutoscalePolicy(core.Anonymous, id, core.AutoscalePolicy{MaxQueue: bound}); err != nil {
		t.Fatal(err)
	}
	const n = 30
	start := make(chan struct{})
	var admitted, rejected atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := tb.MS.Run(context.Background(), core.Anonymous, id, fmt.Sprintf("b-%d", i), core.RunOptions{NoMemo: true})
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, core.ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("burst %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got == 0 || got > bound {
		t.Fatalf("simultaneous burst admitted %d requests, bound %d (rejected %d)", got, bound, rejected.Load())
	}
	if rejected.Load() != n-admitted.Load() {
		t.Fatalf("requests unaccounted: admitted %d rejected %d of %d", admitted.Load(), rejected.Load(), n)
	}
}

// TestAutoscaleHTTPPolicyRoundTrip pins the v2 autoscale endpoints:
// PUT validates and echoes the effective policy, GET reads it back,
// bad policies get bad_request.
func TestAutoscaleHTTPPolicyRoundTrip(t *testing.T) {
	tb := newTB(t, bench.Options{})
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tb.MS.Handler())
	defer srv.Close()
	base := srv.URL + "/api/v2/servables/" + id + "/autoscale"

	put := func(body string) (*http.Response, core.AutoscaleStatus, *core.EnvelopeError) {
		req, _ := http.NewRequest(http.MethodPut, base, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Data  core.AutoscaleStatus `json:"data"`
			Error *core.EnvelopeError  `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp, env.Data, env.Error
	}

	resp, st, _ := put(`{"enabled":true,"min_replicas":2,"max_replicas":6,"target_load":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put: status %d", resp.StatusCode)
	}
	if !st.Policy.Enabled || st.Policy.MinReplicas != 2 || st.Policy.MaxReplicas != 6 || st.Policy.TargetLoad != 3 {
		t.Fatalf("policy not echoed: %+v", st.Policy)
	}
	if st.Policy.ScaleDownCooldown == 0 {
		t.Fatalf("defaults not applied: %+v", st.Policy)
	}

	resp, _, envErr := put(`{"enabled":true,"min_replicas":8,"max_replicas":2}`)
	if resp.StatusCode != http.StatusBadRequest || envErr == nil || envErr.Code != string(core.CodeBadRequest) {
		t.Fatalf("bad policy accepted: status %d, %+v", resp.StatusCode, envErr)
	}
	// min above the DEFAULTED max (32) is just as inconsistent — it
	// would pin an idle servable at the cap forever.
	resp, _, envErr = put(`{"enabled":true,"min_replicas":50}`)
	if resp.StatusCode != http.StatusBadRequest || envErr == nil {
		t.Fatalf("min over defaulted max accepted: status %d, %+v", resp.StatusCode, envErr)
	}

	get, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var env struct {
		Data core.AutoscaleStatus `json:"data"`
	}
	if err := json.NewDecoder(get.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Data.Policy.MinReplicas != 2 {
		t.Fatalf("get did not read the stored policy back: %+v", env.Data.Policy)
	}

	// Unknown servables 404 like every other route.
	miss, err := http.Get(srv.URL + "/api/v2/servables/anonymous/ghost/autoscale")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost autoscale: status %d", miss.StatusCode)
	}
}
