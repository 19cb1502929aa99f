package executor_test

import (
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/executor"
	"repro/internal/executor/executortest"
	"repro/internal/k8s"
	"repro/internal/netsim"
	"repro/internal/rpc"
)

// (An external test package: executortest imports executor.)
func TestParslConformance(t *testing.T) {
	executortest.Run(t, executortest.Suite[*rpc.Client]{
		New: func(t *testing.T, cluster *k8s.Cluster, builder *container.Builder) executortest.Subject[*rpc.Client] {
			return executor.NewParsl(cluster, builder, netsim.RTT(170*time.Microsecond, 0))
		},
		Package: executortest.PythonPackage,
		Input:   "abc",
		Replica: k8s.Resources{MilliCPU: 1000, MemMB: 2048},
	})
}
