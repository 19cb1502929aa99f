package pyruntime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func TestCallRequiresStart(t *testing.T) {
	Register("m:f", func(arg any) (any, error) { return arg, nil })
	it := New()
	if _, err := it.Call("m:f", 1); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("want ErrNotStarted, got %v", err)
	}
}

func TestStartIdempotent(t *testing.T) {
	it := New()
	it.Start()
	if !it.Started() {
		t.Fatal("should be started")
	}
	it.Start() // no-op
	if !it.Started() {
		t.Fatal("still started")
	}
}

func TestCallEcho(t *testing.T) {
	Register("mod:echo", func(arg any) (any, error) { return arg, nil })
	it := New()
	it.CallFactor = 1
	it.CallOverhead = time.Nanosecond
	it.Start()
	out, err := it.Call("mod:echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if out != "hello" {
		t.Fatalf("echo returned %v", out)
	}
	if calls(it) != 1 {
		t.Fatalf("calls = %d", calls(it))
	}
}

func TestCallUnknown(t *testing.T) {
	it := New()
	it.Start()
	if _, err := it.Call("ghost:fn", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("want unknown function, got %v", err)
	}
}

func TestCallPropagatesError(t *testing.T) {
	wantErr := errors.New("python traceback")
	Register("mod:fail", func(arg any) (any, error) { return nil, wantErr })
	it := New()
	it.CallFactor = 1
	it.Start()
	if _, err := it.Call("mod:fail", nil); !errors.Is(err, wantErr) {
		t.Fatalf("want wrapped error, got %v", err)
	}
	if calls(it) != 0 {
		t.Fatal("failed calls should not count")
	}
}

func TestFactorBurnsRealWork(t *testing.T) {
	count := 0
	Register("mod:count", func(arg any) (any, error) {
		count++
		return count, nil
	})
	it := New()
	it.CallFactor = 3
	it.CallOverhead = time.Nanosecond
	it.Start()
	out, err := it.Call("mod:count", nil)
	if err != nil {
		t.Fatal(err)
	}
	// First execution's result is returned even though the body re-ran.
	if out != 1 {
		t.Fatalf("should return first execution's result, got %v", out)
	}
	if count != 3 {
		t.Fatalf("factor 3 should run the body 3 times, ran %d", count)
	}
}

func TestFractionalFactorSpins(t *testing.T) {
	Register("mod:sleepy", func(arg any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return "ok", nil
	})
	it := New()
	it.CallFactor = 1.5
	it.CallOverhead = time.Nanosecond
	it.Start()
	start := time.Now()
	if _, err := it.Call("mod:sleepy", nil); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 2900*time.Microsecond {
		t.Fatalf("factor 1.5 of a 2ms body should take >=3ms, took %v", el)
	}
}

func TestRegistered(t *testing.T) {
	Register("mod:present", func(arg any) (any, error) { return nil, nil })
	if !Registered("mod:present") {
		t.Fatal("should be registered")
	}
	if Registered("mod:absent") {
		t.Fatal("should not be registered")
	}
}

func TestImportsTracked(t *testing.T) {
	it := New()
	it.Start()
	it.Import("numpy")
	it.Import("keras")
	// No crash, introspection only.
	it.Stop()
	if it.Started() {
		t.Fatal("stop should stop")
	}
}

func TestConcurrentCalls(t *testing.T) {
	Register("mod:id", func(arg any) (any, error) { return arg, nil })
	it := New()
	it.CallFactor = 1
	it.CallOverhead = time.Nanosecond
	it.Start()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			out, err := it.Call("mod:id", i)
			if err == nil && out != i {
				err = fmt.Errorf("wrong result %v for %d", out, i)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if calls(it) != 16 {
		t.Fatalf("calls = %d", calls(it))
	}
}

// calls reads the interpreter's completed-call count.
func calls(it *Interpreter) uint64 {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.calls
}
