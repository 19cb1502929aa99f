package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/servable"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tab.Add("x", "y")
	tab.Add("longer", "z")
	tab.Note("n=%d", 5)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "longer", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFeatureTables(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 8 || len(t1.Headers) != 6 {
		t.Fatalf("Table I dimensions wrong: %dx%d", len(t1.Rows), len(t1.Headers))
	}
	t2 := Table2()
	if len(t2.Rows) != 8 || len(t2.Headers) != 6 {
		t.Fatalf("Table II dimensions wrong: %dx%d", len(t2.Rows), len(t2.Headers))
	}
	// The DLHub serving column must claim workflows + transformations —
	// the two capabilities this repo uniquely implements among the five.
	for _, row := range t2.Rows {
		if row[0] == "Workflows" && row[5] != "Yes" {
			t.Fatal("DLHub must support workflows")
		}
		if row[0] == "Training supported" && row[5] != "No" {
			t.Fatal("DLHub does not train (matches paper)")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Requests != 100 || c.Fig7N != 1000 || len(c.Fig7Replicas) == 0 || c.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Requests: 7, Fig7N: 9}.Defaults()
	if c2.Requests != 7 || c2.Fig7N != 9 {
		t.Fatal("defaults must not override explicit values")
	}
	p := PaperScale()
	if p.Fig7N != 5000 || p.Requests != 100 {
		t.Fatalf("paper scale wrong: %+v", p)
	}
}

func TestInputGenShapes(t *testing.T) {
	g := newInputGen(1)
	if img := g.forServable("cifar10").([]any); len(img) != 32*32*3 {
		t.Fatalf("cifar input wrong: %d", len(img))
	}
	if img := g.forServable("inception").([]any); len(img) != 64*64*3 {
		t.Fatalf("inception input wrong: %d", len(img))
	}
	if _, ok := g.forServable("matminer-util").(string); !ok {
		t.Fatal("util input should be a formula string")
	}
	if m := g.forServable("matminer-featurize").(map[string]any); len(m) != 2 {
		t.Fatal("featurize input should be a fraction map")
	}
	if feats := g.forServable("matminer-model").([]any); len(feats) < 70 {
		t.Fatal("model input should be a feature vector")
	}
}

func TestTestbedPublishAndServe(t *testing.T) {
	tb, err := NewTestbed(Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	pkg := servable.NoopPackage()
	id, err := tb.MS.Publish(context.Background(), core.Anonymous, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MS.Deploy(context.Background(), core.Anonymous, id, 1, "parsl"); err != nil {
		t.Fatal(err)
	}
	res, err := tb.MS.Run(context.Background(), core.Anonymous, id, "x", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != `"hello world"` {
		t.Fatalf("wrong output %s", res.Output)
	}
}

func TestTestbedUnknownExecutor(t *testing.T) {
	if _, err := NewTestbed(Options{Nodes: 2, Executors: []string{"spark"}}); err == nil {
		t.Fatal("unknown executor should fail assembly")
	}
}

func TestPublishPaperServables(t *testing.T) {
	tb, err := NewTestbed(Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ids, err := tb.PublishPaperServables(core.Anonymous, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("want 6 servables, got %d", len(ids))
	}
	// One of each is runnable end to end.
	res, err := tb.MS.Run(context.Background(), core.Anonymous, ids["matminer-util"], "NaCl", core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(res.Output, &m); err != nil || len(m) != 2 {
		t.Fatalf("NaCl wrong: %s (%v)", res.Output, err)
	}
}

// fanOut runs every index, waits for all of them, and returns one of
// the errors they returned; chunk covers a slice with no gap or overlap.
func TestFanOutAndChunk(t *testing.T) {
	var ran atomic.Int32
	err := fanOut(8, func(i int) error {
		ran.Add(1)
		if i%3 == 2 {
			return fmt.Errorf("chunk %d failed", i)
		}
		return nil
	})
	if ran.Load() != 8 {
		t.Errorf("fanOut ran %d of 8", ran.Load())
	}
	if err == nil || !strings.HasSuffix(err.Error(), "failed") {
		t.Errorf("fanOut error = %v, want one of the failures", err)
	}
	if err := fanOut(3, func(int) error { return nil }); err != nil {
		t.Errorf("fanOut with no failure = %v", err)
	}
	items := []any{0, 1, 2, 3, 4}
	var got []any
	for i := 0; i < (len(items)+1)/2; i++ {
		got = append(got, chunk(items, i, 2)...)
	}
	if fmt.Sprint(got) != fmt.Sprint(items) || len(chunk(items, 2, 2)) != 1 {
		t.Errorf("chunks of 2 = %v", got)
	}
}
