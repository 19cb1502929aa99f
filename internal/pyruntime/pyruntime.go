// Package pyruntime is the simulated CPython bridge — the substitution
// the repro band calls out ("must bridge to Python model runtimes").
// DLHub servables are "any Python 3-compatible model or processing
// function"; offline Go cannot embed CPython, so this package reproduces
// the three ways a Python runtime is *observable* in the paper's
// experiments:
//
//  1. cold-start cost: interpreter launch + imports, paid once per
//     container (PythonImportCost);
//  2. per-call overhead: entering the interpreter, unpickling args,
//     boxing results (PythonCallOverhead);
//  3. throughput factor: interpreted execution is slower than the C++
//     tensorflow_model_server on the same model (PythonCallFactor) —
//     the §V-B5 "the core tensorflow model server, implemented in C++,
//     outperforms Python-based systems" effect.
//
// The actual function bodies are Go functions registered under
// "module:function" names (the moral equivalent of the function being
// importable inside the container image). Their math really runs; the
// factor is applied by re-running the hot loop proportionally, not by
// sleeping, so CPU pressure — and therefore replica scaling behaviour —
// stays realistic.
package pyruntime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simconst"
)

// Func is a registered "Python" function: JSON-ish value in, value out.
type Func func(arg any) (any, error)

// Errors.
var (
	ErrNotStarted      = errors.New("pyruntime: interpreter not started")
	ErrUnknownFunction = errors.New("pyruntime: unknown function")
)

// registry holds functions importable by any interpreter, keyed
// "module:function".
var registry sync.Map

// Register installs a function under a "module:function" name. It is
// the build-time analogue of copying the module into the container.
func Register(name string, f Func) { registry.Store(name, f) }

// Registered reports whether a function name resolves.
func Registered(name string) bool {
	_, ok := registry.Load(name)
	return ok
}

// Lookup returns the registered function for direct native invocation —
// the path a compiled (non-Python) host takes. Python-hosted execution
// goes through Interpreter.Call, which adds the interpreter costs.
func Lookup(name string) (Func, bool) {
	v, ok := registry.Load(name)
	if !ok {
		return nil, false
	}
	return v.(Func), true
}

// Interpreter is one simulated CPython process, embedded in a servable
// container by the DLHub shim.
type Interpreter struct {
	mu      sync.Mutex
	started bool
	imports map[string]bool

	// CallFactor over-rides simconst.PythonCallFactor when > 0 (tests).
	CallFactor float64
	// CallOverhead overrides simconst.PythonCallOverhead when > 0.
	CallOverhead time.Duration

	calls uint64
}

// New returns an unstarted interpreter.
func New() *Interpreter {
	return &Interpreter{imports: make(map[string]bool)}
}

// Start launches the interpreter, paying the one-time import cost. It
// is idempotent.
func (it *Interpreter) Start() {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.started {
		return
	}
	time.Sleep(simconst.D(simconst.PythonImportCost))
	it.started = true
}

// Started reports whether Start has completed.
func (it *Interpreter) Started() bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.started
}

// Import marks a module imported (additional imports after start are
// cheap and tracked only for introspection).
func (it *Interpreter) Import(module string) {
	it.mu.Lock()
	it.imports[module] = true
	it.mu.Unlock()
}

func (it *Interpreter) factor() float64 {
	if it.CallFactor > 0 {
		return it.CallFactor
	}
	return simconst.PythonCallFactor
}

func (it *Interpreter) overhead() time.Duration {
	if it.CallOverhead > 0 {
		return it.CallOverhead
	}
	return simconst.PythonCallOverhead
}

// Call invokes a registered function with Python-like cost: fixed
// per-call overhead, then the function body re-executed
// ceil(factor)-scaled so the slowdown is real CPU work (which contends
// for cores exactly like interpreted bytecode would), with the result
// of the first execution returned.
func (it *Interpreter) Call(name string, arg any) (any, error) {
	if !it.Started() {
		return nil, ErrNotStarted
	}
	v, ok := registry.Load(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, name)
	}
	f := v.(Func)

	time.Sleep(simconst.D(it.overhead()))

	start := time.Now()
	out, err := f(arg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	// Burn the remaining (factor-1)x as real work: re-run the body.
	// For very cheap bodies the loop overhead dominates, which is
	// exactly how interpreter dispatch behaves.
	extra := it.factor() - 1
	for extra > 0 {
		if extra < 1 {
			// Fractional remainder: spin for the fraction of elapsed.
			deadline := time.Now().Add(time.Duration(extra * float64(elapsed)))
			for time.Now().Before(deadline) {
			}
			break
		}
		if _, err := f(arg); err != nil {
			break
		}
		extra--
	}

	it.mu.Lock()
	it.calls++
	it.mu.Unlock()
	return out, nil
}

// Stop shuts the interpreter down.
func (it *Interpreter) Stop() {
	it.mu.Lock()
	it.started = false
	it.mu.Unlock()
}
