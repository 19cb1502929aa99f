package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskmanager"
)

// TestPayloadsReachTheKeyCompact: the cache key hashes a payload's bytes
// as they are (only an object or an escape is re-encoded), so each
// producer of what run and runBatch take hands them over compact — the
// HTTP door, encodeInput's json.Marshal, and the distributed pipeline
// engine at a step boundary. The task carries the same bytes the key
// hashed, so each spaced payload's task must arrive compact, and a
// compact twin sent afterwards must hit the entry it left.
func TestPayloadsReachTheKeyCompact(t *testing.T) {
	ms := newPipelineMS(t)
	stmA := startScriptedTM(t, ms, "stm-a")
	stmB := startScriptedTM(t, ms, "stm-b")
	if err := ms.WaitForTM(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	aID := publishStep(t, ms, core.Anonymous, "step-a")
	bID := publishStep(t, ms, core.Anonymous, "step-b")
	if err := ms.DeployTo(ctx, core.Anonymous, aID, 1, "parsl", "stm-a"); err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(ctx, core.Anonymous, bID, 1, "parsl", "stm-b"); err != nil {
		t.Fatal(err)
	}
	pipeID := publishPipeline(t, ms, core.Anonymous, "spaced-pipe", []string{aID, bID})
	h := ms.Handler()

	// answer serves the next task at tm: its payload must read want, and
	// the reply's output is out.
	answer := func(tm *scriptedTM, want string, out any) {
		t.Helper()
		pt := tm.waitTask(5 * time.Second)
		if got := payloadOf(pt.task); got != want {
			t.Fatalf("%s task carries %s, want %s", pt.task.Kind, got, want)
		}
		if pt.task.Kind == "run_batch" {
			pt.reply(taskmanager.Reply{OK: true, Outputs: []any{out}})
		} else {
			pt.reply(taskmanager.Reply{OK: true, Output: out})
		}
	}
	// post sends a run body to the door and returns the cache header,
	// or the answer if it is not a 200.
	post := func(body string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v2/servables/"+aID+"/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
		}
		return rec.Header().Get(core.CacheHeader)
	}
	// run and batch are the in-process doors on aID; they report hit or
	// miss, or the error.
	run := func(input any) string {
		res, err := ms.Run(ctx, core.Anonymous, aID, input, core.RunOptions{})
		return hitOrMiss(res, err)
	}
	batch := func(inputs ...any) string {
		res, err := ms.RunBatch(ctx, core.Anonymous, aID, inputs, core.RunOptions{})
		return hitOrMiss(res, err)
	}
	// spacedThenCompact sends a spaced payload through call while its
	// task is answered, then its compact twin, which must hit.
	spacedThenCompact := func(spaced, compact func() string, want string) {
		t.Helper()
		done := make(chan string, 1)
		go func() { done <- spaced() }()
		answer(stmA, want, "out")
		if got := <-done; got != "miss" {
			t.Fatalf("the spaced form of %s: %s, want miss", want, got)
		}
		if got := compact(); got != "hit" {
			t.Fatalf("the compact form of %s: %s, want hit", want, got)
		}
	}

	// The HTTP door.
	spacedThenCompact(func() string { return post(`{"input": [ 1 , [ 2 ] ] }`) },
		func() string { return post(`{"input":[1,[2]]}`) }, `[1,[2]]`)
	spacedThenCompact(func() string { return post(`{"inputs": [ [ 1 ] ,[2 ] ]}`) },
		func() string { return post(`{"inputs":[[1],[2]]}`) }, `[1] [2]`)
	// The in-process door: encodeInput's json.Marshal compacts a
	// json.RawMessage.
	spacedThenCompact(func() string { return run(json.RawMessage("[ 3 ,\n\t4 ]")) },
		func() string { return run([]int{3, 4}) }, `[3,4]`)
	spacedThenCompact(func() string { return batch(json.RawMessage(" [ 5 ] ")) },
		func() string { return batch([]int{5}) }, `[5]`)

	// The pipeline engine's step boundary: step a answers as a pod may,
	// spaced out; step b's task and key take its output compacted, and
	// the pipeline's own output is the last step's bytes as they are.
	done := make(chan string, 1)
	go func() {
		res, err := ms.Run(ctx, core.Anonymous, pipeID, "x", core.RunOptions{})
		if err != nil {
			res.Output = json.RawMessage(err.Error())
		}
		done <- string(res.Output)
	}()
	answer(stmA, `"x"`, json.RawMessage("[ 6 , [ 7 ] ]"))
	answer(stmB, `[6,[7]]`, json.RawMessage(`{ "done" : true }`))
	if got := <-done; got != `{ "done" : true }` {
		t.Fatalf("the pipeline's output reads %s, want the last step's bytes as they are", got)
	}
	res, err := ms.Run(ctx, core.Anonymous, bID, []any{6, []int{7}}, core.RunOptions{})
	if got := hitOrMiss(res, err); got != "hit" {
		t.Fatalf("a direct run of step b on the step's input: %s, want a hit on the step's entry", got)
	}
}

// payloadOf is a pulled task's payload as text: a run's input, or a
// batch's inputs joined by spaces.
func payloadOf(task taskmanager.Task) string {
	if task.Inputs != nil {
		parts := make([]string, len(task.Inputs))
		for i, in := range task.Inputs {
			parts[i] = string(in)
		}
		return strings.Join(parts, " ")
	}
	return fmt.Sprintf("%s", task.Input)
}

func hitOrMiss(res core.RunResult, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case res.CacheHit:
		return "hit"
	}
	return "miss"
}
