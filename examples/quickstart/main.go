// Quickstart: stand up an in-process DLHub deployment, publish a model
// with the SDK toolbox, discover it with search, deploy it, and invoke
// it — the complete publish/discover/serve loop of the paper in ~80
// lines.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func main() {
	ctx := context.Background()
	// Compress injected environmental latencies (container starts,
	// interpreter imports) so the demo is snappy; set to 1 for
	// paper-faithful timings.
	simconst.Scale = 100

	// One-process deployment: Management Service + Task Manager +
	// mini-Kubernetes cluster.
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	srv := httptest.NewServer(tb.MS.Handler())
	defer srv.Close()
	client := dlhub.NewClient(srv.URL, "")

	// 1. Describe and publish a servable with the metadata toolbox.
	servable.RegisterBuiltins()
	pkg, err := dlhub.DescribePythonStaticMethod(
		"composition-parser", "Composition parser", "pymatgen:parse_composition").
		WithAuthors("Ward, Logan", "Chard, Ryan").
		WithDescription("Parses a chemical formula into element mole fractions using pymatgen.").
		WithDomains("materials science").
		VisibleTo("public").
		WithInput("string", nil, "chemical formula, e.g. NaCl").
		WithOutput("dict", "element -> mole fraction").
		WithIdentifier("10.5555/dlhub-quickstart").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	id, err := client.PublishPackage(ctx, pkg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %s\n", id)

	// 2. Discover it via free-text search.
	res, err := client.Search(ctx, "chemical formula fractions", dlhub.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search found %d result(s): %v\n", res.Total, res.IDs)

	// 3. Deploy two replicas on the Parsl executor.
	if err := client.Deploy(ctx, id, 2, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployed 2 replicas")

	// 4. Invoke it.
	for _, formula := range []string{"NaCl", "SiO2", "Ca(OH)2"} {
		out, err := client.Run(ctx, id, formula)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s -> %v  (request %.2f ms, invocation %.2f ms, inference %.2f ms)\n",
			formula, out.Output,
			float64(out.RequestMicros)/1000,
			float64(out.InvocationMicros)/1000,
			float64(out.InferenceMicros)/1000)
	}

	// 5. Async invocation with task polling.
	taskID, err := client.RunAsync(ctx, id, "Fe2O3")
	if err != nil {
		log.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err := client.WaitTask(waitCtx, taskID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async task %s: %s -> %v\n", taskID[:8], st.Status, st.Reply.Output)
}
