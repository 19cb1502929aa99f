// CANDLE access-controlled model sharing (§VI-A): cancer research
// models "require substantial testing and verification by a subset of
// selected users prior to their general release. DLHub supports this
// use case by supporting model sharing and discovery with fine grain
// access control ... Once models are determined suitable for general
// release, the access control on the model can be updated within DLHub
// to make them publicly available."
//
//	go run ./examples/candle
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"repro/dlhub"
	"repro/internal/auth"
	"repro/internal/bench"
	"repro/internal/ml/nn"
	"repro/internal/simconst"
)

func main() {
	ctx := context.Background()
	simconst.Scale = 100

	// Globus-Auth-like identity fabric: three researchers, one test group.
	authority := auth.NewService(time.Hour)
	authority.RegisterProvider("anl")
	authority.RegisterClient("dlhub", "DLHub", "dlhub:all")
	owner, _ := authority.RegisterUser("anl", "jwozniak", "pw", "Justin Wozniak", "")
	tester, _ := authority.RegisterUser("anl", "tester1", "pw", "Selected Tester", "")
	authority.RegisterUser("anl", "outsider", "pw", "Curious Outsider", "") //nolint:errcheck
	authority.CreateGroup("candle-testers")
	if err := authority.AddToGroup("candle-testers", tester.ID); err != nil {
		log.Fatal(err)
	}
	_ = owner

	tb, err := bench.NewTestbed(bench.Options{Nodes: 4, Auth: authority, RunScope: "dlhub:all"})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	srv := httptest.NewServer(tb.MS.Handler())
	defer srv.Close()

	clientFor := func(user string) *dlhub.Client {
		tok, err := authority.Authenticate("anl", user, "pw", "dlhub", "dlhub:all")
		if err != nil {
			log.Fatal(err)
		}
		return dlhub.NewClient(srv.URL, tok.Value)
	}

	// The CANDLE team publishes a drug-response model restricted to the
	// tester group. (A small CNN stands in for the real model.)
	model, err := nn.Encode(nn.NewCIFAR10(99))
	if err != nil {
		log.Fatal(err)
	}
	pkg, err := dlhub.DescribeKerasModel("drug-response", "CANDLE drug response predictor", model).
		WithAuthors("Wozniak, Justin", "CANDLE Team").
		WithDescription("Predicts drug response from molecular features of tumor cells (pre-release).").
		WithDomains("cancer research").
		VisibleTo(auth.GroupURN("candle-testers")).
		WithInput("ndarray", []int{32, 32, 3}, "molecular feature tensor").
		WithOutput("list", "response classes").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	ownerClient := clientFor("jwozniak")
	id, err := ownerClient.PublishPackage(ctx, pkg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ownerClient.Deploy(ctx, id, 1, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %s, visible only to group candle-testers\n\n", id)

	input := make([]any, 32*32*3)
	for i := range input {
		input[i] = float64(i%17) / 17
	}

	// Selected tester: discovery + inference work.
	testerClient := clientFor("tester1")
	found, _ := testerClient.Search(ctx, "drug response", dlhub.SearchOptions{})
	fmt.Printf("tester search:   %d result(s)\n", found.Total)
	if _, err := testerClient.Run(ctx, id, input); err != nil {
		log.Fatalf("tester should be able to run: %v", err)
	}
	fmt.Println("tester run:      OK (group member)")

	// Outsider: the model is invisible and unrunnable.
	outsiderClient := clientFor("outsider")
	hidden, _ := outsiderClient.Search(ctx, "drug response", dlhub.SearchOptions{})
	fmt.Printf("outsider search: %d result(s)\n", hidden.Total)
	if _, err := outsiderClient.Run(ctx, id, input); err != nil {
		fmt.Printf("outsider run:    denied (%v)\n\n", err)
	} else {
		log.Fatal("outsider should have been denied")
	}

	// General release: the owner flips the ACL to public.
	if err := ownerClient.UpdateVisibility(ctx, id, []string{"public"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("owner released the model publicly")
	released, _ := outsiderClient.Search(ctx, "drug response", dlhub.SearchOptions{})
	fmt.Printf("outsider search: %d result(s)\n", released.Total)
	if out, err := outsiderClient.Run(ctx, id, input); err == nil {
		top := out.Output.([]any)[0].(map[string]any)
		fmt.Printf("outsider run:    OK -> top class %v\n", top["label"])
	} else {
		log.Fatalf("outsider should now be able to run: %v", err)
	}
}
