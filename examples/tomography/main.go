// Tomographic neuroanatomy processing (§VI-C): X-ray microtomography at
// the Advanced Photon Source uses DLHub to pick the highest-quality
// slice for reconstruction ("center finding") in near real time, then
// batch-segments the reconstructed images to characterize cells.
//
//	go run ./examples/tomography
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"

	"repro/dlhub"
	"repro/internal/bench"
	"repro/internal/servable"
	"repro/internal/simconst"
)

// makeSlice synthesizes a tomographic slice: mostly smooth background
// with sharpness (gradient energy) controlled by quality.
func makeSlice(rng *rand.Rand, n int, quality float64) []any {
	img := make([]any, n)
	for i := range img {
		base := math.Sin(float64(i) / 7)
		noise := rng.Float64() * quality * 4
		img[i] = base + noise
	}
	return img
}

// makeCellImage synthesizes a reconstructed image with bright blobs
// ("cells") on a dark background.
func makeCellImage(rng *rand.Rand, n int, cellFrac float64) []any {
	img := make([]any, n)
	for i := range img {
		if rng.Float64() < cellFrac {
			img[i] = 0.8 + rng.Float64()*0.2 // cell
		} else {
			img[i] = rng.Float64() * 0.2 // background
		}
	}
	return img
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

	// Publish the two APS models.
	servable.RegisterBuiltins()
	centerPkg, err := dlhub.DescribePythonStaticMethod(
		"aps-center-finder", "Tomography center finder", "tomography:find_center").
		WithAuthors("Chard, Ryan").
		WithDescription("Identifies the highest-quality slice for tomographic reconstruction.").
		WithDomains("neuroanatomy", "tomography").
		VisibleTo("public").
		WithInput("list", nil, "list of slices (flattened float images)").
		WithOutput("dict", "center slice index + quality score").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	segmentPkg, err := dlhub.DescribePythonStaticMethod(
		"aps-segmentation", "Cell segmentation", "tomography:segment").
		WithAuthors("Chard, Ryan").
		WithDescription("Two-means threshold segmentation of reconstructed brain images.").
		WithDomains("neuroanatomy").
		VisibleTo("public").
		WithInput("list", nil, "flattened float image").
		WithOutput("dict", "mask + cell fraction").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	centerID, err := client.PublishPackage(ctx, centerPkg)
	if err != nil {
		log.Fatal(err)
	}
	segmentID, err := client.PublishPackage(ctx, segmentPkg)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Deploy(ctx, centerID, 1, ""); err != nil {
		log.Fatal(err)
	}
	if err := client.Deploy(ctx, segmentID, 4, ""); err != nil { // batch post-processing gets replicas
		log.Fatal(err)
	}
	fmt.Printf("deployed %s and %s\n\n", centerID, segmentID)

	// Near-real-time center finding during reconstruction: slices of
	// varying quality arrive; slice 7 is synthesized sharpest.
	rng := rand.New(rand.NewSource(42))
	slices := make([]any, 12)
	for i := range slices {
		quality := 0.1
		if i == 7 {
			quality = 1.0
		}
		slices[i] = makeSlice(rng, 256, quality)
	}
	res, err := client.Run(ctx, centerID, slices)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Output.(map[string]any)
	fmt.Printf("center finding: slice %v selected (quality %.1f) in %.2f ms\n\n",
		m["center_slice"], m["quality"], float64(res.RequestMicros)/1000)

	// Batch-style segmentation post-processing of reconstructed images.
	images := make([]any, 16)
	wantFracs := make([]float64, 16)
	for i := range images {
		frac := 0.1 + 0.04*float64(i)
		wantFracs[i] = frac
		images[i] = makeCellImage(rng, 1024, frac)
	}
	batch, err := client.RunBatch(ctx, segmentID, images)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segmented %d images in one batch (%.1f ms total):\n", len(images), float64(batch.RequestMicros)/1000)
	for i, out := range batch.Outputs {
		got := out.(map[string]any)["cell_fraction"].(float64)
		fmt.Printf("  image %2d: cell fraction %.3f (generated %.3f)\n", i, got, wantFracs[i])
	}
}
