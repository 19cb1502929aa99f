// Formation-enthalpy pipeline (§VI-D): "a pipeline for predicting
// formation enthalpy from a material composition (e.g., SiO2) can be
// organized into three steps: 1) conversion of material composition
// text into a pymatgen object; 2) creation of a set of features, via
// matminer; and 3) prediction of formation enthalpy using the matminer
// features as input. Once the pipeline is defined, the end user sees a
// simplified interface that allows them to input a material composition
// and receive a formation enthalpy."
//
//	go run ./examples/formation_enthalpy
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func main() {
	ctx := context.Background()
	simconst.Scale = 100
	tb, err := bench.NewTestbed(bench.Options{Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	srv := httptest.NewServer(tb.MS.Handler())
	defer srv.Close()
	client := dlhub.NewClient(srv.URL, "")

	// Publish + deploy the three workflow stages.
	fmt.Println("training the random-forest stability model on synthetic OQMD data...")
	stages := map[string]*servable.Package{}
	stages["util"] = servable.MatminerUtilPackage()
	stages["featurize"] = servable.MatminerFeaturizePackage()
	model, err := servable.MatminerModelPackage(400, 7)
	if err != nil {
		log.Fatal(err)
	}
	stages["model"] = model

	ids := map[string]string{}
	for _, name := range []string{"util", "featurize", "model"} {
		id, err := client.PublishPackage(ctx, stages[name])
		if err != nil {
			log.Fatalf("publish %s: %v", name, err)
		}
		if err := client.Deploy(ctx, id, 1, ""); err != nil {
			log.Fatalf("deploy %s: %v", name, err)
		}
		ids[name] = id
		fmt.Printf("published + deployed %s\n", id)
	}

	// Publish the pipeline that chains them server-side.
	pipe, err := dlhub.DescribePipeline(
		"formation-enthalpy", "Formation enthalpy from composition",
		ids["util"], ids["featurize"], ids["model"]).
		WithAuthors("Ward, Logan").
		WithDescription("composition string -> pymatgen -> matminer features -> RF formation enthalpy").
		WithDomains("materials science").
		VisibleTo("public").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	pipeID, err := client.PublishPackage(ctx, pipe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published pipeline %s\n\n", pipeID)

	// The simplified end-user interface: composition in, enthalpy out.
	for _, composition := range []string{"SiO2", "NaCl", "MgO", "Fe2O3", "TiO2", "FeNi"} {
		start := time.Now()
		res, err := client.Run(ctx, pipeID, composition)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ΔHf(%-6s) = %+7.3f eV/atom   (%.1f ms end-to-end, server-side chaining)\n",
			composition, res.Output, float64(time.Since(start).Microseconds())/1000)
	}

	// Contrast: running the three steps client-side pays the MS<->TM
	// round trip three times instead of once.
	fmt.Println("\nclient-side chaining for comparison:")
	start := time.Now()
	frac, err := client.Run(ctx, ids["util"], "SiO2")
	if err != nil {
		log.Fatal(err)
	}
	feats, err := client.Run(ctx, ids["featurize"], frac.Output)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := client.Run(ctx, ids["model"], feats.Output)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ΔHf(SiO2) = %+7.3f eV/atom   (%.1f ms with 3 client round trips)\n",
		pred.Output, float64(time.Since(start).Microseconds())/1000)
	_ = core.Anonymous
}
