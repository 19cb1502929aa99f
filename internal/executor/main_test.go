package executor

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
