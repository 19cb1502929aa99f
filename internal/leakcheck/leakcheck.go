// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package's TestMain calls Main: a test that starts a
// goroutine must also see it end — a loop stopped, a connection closed,
// a stream read to its end.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long goroutines that are already exiting get to finish.
const grace = 2 * time.Second

// Main runs the tests and, when they pass, waits up to grace for every
// other goroutine to exit. Any left fail the binary, each reported by
// its header and the frame that created it. A fuzzing run is not
// checked: its engine watches for signals with a goroutine that lives
// as long as the process.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		if left := survivors(); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests:\n", len(left))
			for _, g := range left {
				fmt.Fprintln(os.Stderr, g)
			}
			code = 1
		}
	}
	os.Exit(code)
}

// survivors polls the other goroutines until none is left or grace has
// passed, and returns the last ones seen.
func survivors() []string {
	deadline := time.Now().Add(grace)
	for {
		left := others()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// others describes every goroutine but the caller's, from one
// runtime.Stack snapshot of them all.
func others() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The snapshot lists the caller first, then the rest, each a block
	// ending in a blank line.
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		header, _, _ := strings.Cut(g, "\n")
		created := "created by: not shown"
		if _, after, ok := strings.Cut(g, "\ncreated by "); ok {
			created = "created by " + strings.Join(strings.Fields(after), " ")
		}
		left = append(left, header+"\n\t"+created)
	}
	return left
}
