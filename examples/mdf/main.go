// MDF dataset enrichment (§VI-B): "When a new dataset is registered
// with MDF, automated workflows are applied to trigger the invocation
// of relevant models to analyze the dataset and generate additional
// metadata. The selection of appropriate models is possible due to the
// descriptive schemas used in both MDF and DLHub": MDF's fine-grained
// type information is matched against the input types DLHub models
// declare.
//
//	go run ./examples/mdf
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// dataset is an MDF-registered dataset with extracted type info.
type dataset struct {
	Name     string
	DataType string // fine-grained type: "string/composition", ...
	Records  []any
}

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

	// DLHub side: published models declare their input kinds.
	servable.RegisterBuiltins()
	parser, err := dlhub.DescribePythonStaticMethod(
		"composition-parser", "Composition parser", "pymatgen:parse_composition").
		WithAuthors("Ward, Logan").
		WithDescription("Element fractions from composition strings.").
		WithDomains("materials science").
		VisibleTo("public").
		WithInput("string", nil, "composition").
		WithOutput("dict", "fractions").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	parserID, err := client.PublishPackage(ctx, parser)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Deploy(ctx, parserID, 2, ""); err != nil {
		log.Fatal(err)
	}

	segment, err := dlhub.DescribePythonStaticMethod(
		"image-segmenter", "Image segmenter", "tomography:segment").
		WithAuthors("Chard, Ryan").
		WithDescription("Threshold segmentation for image datasets.").
		WithDomains("imaging").
		VisibleTo("public").
		WithInput("list", nil, "flattened image").
		WithOutput("dict", "mask").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	segmentID, err := client.PublishPackage(ctx, segment)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Deploy(ctx, segmentID, 1, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DLHub models: %s (input kind string), %s (input kind list)\n\n", parserID, segmentID)

	// MDF side: new datasets arrive with fine-grained type info.
	datasets := []dataset{
		{
			Name:     "oqmd-subset",
			DataType: "string",
			Records:  []any{"NaCl", "SiO2", "Fe2O3", "MgAl2O4"},
		},
		{
			Name:     "aps-brain-tiles",
			DataType: "list",
			Records:  []any{[]any{0.1, 0.9, 0.05, 0.85}, []any{0.9, 0.9, 0.1, 0.2}},
		},
	}

	// The enrichment workflow: for each registered dataset, find DLHub
	// models whose declared input kind matches the dataset's extracted
	// type, and fan the records out to them.
	for _, ds := range datasets {
		fmt.Printf("dataset %q registered with MDF (type %s)\n", ds.Name, ds.DataType)
		matches, err := client.Search(ctx, "", dlhub.SearchOptions{
			Terms: map[string]string{"input.kind": ds.DataType},
		})
		if err != nil {
			log.Fatal(err)
		}
		if matches.Total == 0 {
			fmt.Println("  no applicable models")
			continue
		}
		for _, modelID := range matches.IDs {
			res, err := client.RunBatch(ctx, modelID, ds.Records)
			if err != nil {
				log.Fatalf("  enrichment with %s failed: %v", modelID, err)
			}
			fmt.Printf("  enriched %d records with %s (%.1f ms)\n",
				len(res.Outputs), modelID, float64(res.RequestMicros)/1000)
			fmt.Printf("    first derived metadata record: %v\n", res.Outputs[0])
		}
	}
}
