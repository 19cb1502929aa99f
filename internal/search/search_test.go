package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func seedIndex() *Index {
	ix := NewIndex()
	ix.Ingest(Doc{
		ID: "rchard/cifar10",
		Fields: map[string]any{
			"title":       "CIFAR-10 convolutional network",
			"description": "image classification benchmark model",
			"type":        "keras",
			"domains":     []string{"vision"},
			"year":        2018,
		},
		VisibleTo: []string{"public"},
	})
	ix.Ingest(Doc{
		ID: "ward/matminer-model",
		Fields: map[string]any{
			"title":       "Formation enthalpy random forest",
			"description": "predicts material stability from composition",
			"type":        "sklearn",
			"domains":     []string{"materials science"},
			"year":        2016,
		},
		VisibleTo: []string{"public"},
	})
	ix.Ingest(Doc{
		ID: "candle/drug-response",
		Fields: map[string]any{
			"title":       "CANDLE drug response predictor",
			"description": "cellular drug response from tumor features",
			"type":        "keras",
			"domains":     []string{"cancer"},
			"year":        2018,
		},
		VisibleTo: []string{"urn:group:candle-testers"},
	})
	return ix
}

func ids(r Result) []string {
	out := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		out[i] = h.Doc.ID
	}
	sort.Strings(out)
	return out
}

func TestFreeTextSearch(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{Must: []Clause{{FreeText: "stability composition"}}, Principals: nil})
	if !reflect.DeepEqual(ids(r), []string{"ward/matminer-model"}) {
		t.Fatalf("free text wrong: %v", ids(r))
	}
}

func TestFreeTextRanking(t *testing.T) {
	ix := NewIndex()
	ix.Ingest(Doc{ID: "a", Fields: map[string]any{"title": "neural network"}, VisibleTo: []string{"public"}})
	ix.Ingest(Doc{ID: "b", Fields: map[string]any{"title": "neural network neural"}, VisibleTo: []string{"public"}})
	ix.Ingest(Doc{ID: "c", Fields: map[string]any{"title": "random forest"}, VisibleTo: []string{"public"}})
	r := ix.Search(Query{Must: []Clause{{FreeText: "neural forest"}}})
	if r.Total != 3 {
		t.Fatalf("want 3 hits (OR within clause), got %d", r.Total)
	}
	// "forest" is rarer than "neural" (1 doc vs 2) so c should outrank a.
	var scoreA, scoreC float64
	for _, h := range r.Hits {
		switch h.Doc.ID {
		case "a":
			scoreA = h.Score
		case "c":
			scoreC = h.Score
		}
	}
	if scoreC <= scoreA {
		t.Fatalf("rarer token should score higher: c=%v a=%v", scoreC, scoreA)
	}
}

func TestTermQuery(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{Must: []Clause{{Field: "type", Term: "keras"}}})
	if !reflect.DeepEqual(ids(r), []string{"rchard/cifar10"}) {
		t.Fatalf("term query leaked private docs or missed: %v", ids(r))
	}
	// A value of several tokens matches where the field has every one of
	// them — "python_function" is indexed as python, function — and an ID
	// is such a value.
	ix.Ingest(Doc{ID: "ward/featurize", Fields: map[string]any{"id": "ward/featurize", "type": "python_function"}, VisibleTo: []string{"public"}})
	ix.Ingest(Doc{ID: "ward/parse", Fields: map[string]any{"id": "ward/parse", "type": "python_static_method"}, VisibleTo: []string{"public"}})
	for _, tc := range []struct {
		field, term string
		want        []string
	}{
		{"type", "python_function", []string{"ward/featurize"}},
		{"type", "Python", []string{"ward/featurize", "ward/parse"}},
		{"type", "python_class", []string{}},
		{"id", "ward/parse", []string{"ward/parse"}},
		{"id", "ward/matminer-model", []string{}}, // seeded without an id field
		{"type", "_", []string{}},
	} {
		r := ix.Search(Query{Must: []Clause{{Field: tc.field, Term: tc.term}}})
		if !reflect.DeepEqual(ids(r), tc.want) {
			t.Errorf("%s: %q matched %v, want %v", tc.field, tc.term, ids(r), tc.want)
		}
	}
}

func TestPrefixQuery(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{Must: []Clause{{Field: "title", Prefix: "convolut"}}})
	if !reflect.DeepEqual(ids(r), []string{"rchard/cifar10"}) {
		t.Fatalf("prefix query wrong: %v", ids(r))
	}
	// Prefix matching is the paper's "partial matching".
	r = ix.Search(Query{Must: []Clause{{Field: "description", Prefix: "predict"}}})
	if len(ids(r)) != 1 {
		t.Fatalf("prefix predict wrong: %v", ids(r))
	}
}

func TestRangeQuery(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{Must: []Clause{{Field: "year", Range: &Range{Min: 2017, Max: 2019}}}})
	got := ids(r)
	if !reflect.DeepEqual(got, []string{"rchard/cifar10"}) {
		t.Fatalf("range query wrong: %v", got)
	}
	// Open lower bound.
	r = ix.Search(Query{Must: []Clause{{Field: "year", Range: &Range{Min: math.NaN(), Max: 2017}}}})
	if !reflect.DeepEqual(ids(r), []string{"ward/matminer-model"}) {
		t.Fatalf("open range wrong: %v", ids(r))
	}
}

func TestClausesAreConjunctive(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{Must: []Clause{
		{Field: "type", Term: "keras"},
		{Field: "year", Range: &Range{Min: 2018, Max: 2018}},
	}, Principals: []string{"urn:group:candle-testers"}})
	if !reflect.DeepEqual(ids(r), []string{"candle/drug-response", "rchard/cifar10"}) {
		t.Fatalf("conjunction wrong: %v", ids(r))
	}
}

func TestACLFiltering(t *testing.T) {
	ix := seedIndex()
	// Anonymous: only public docs.
	r := ix.Search(Query{Must: []Clause{{Field: "type", Term: "keras"}}})
	for _, h := range r.Hits {
		if h.Doc.ID == "candle/drug-response" {
			t.Fatal("private doc leaked to anonymous caller")
		}
	}
	// Group member sees it.
	r = ix.Search(Query{
		Must:       []Clause{{Field: "type", Term: "keras"}},
		Principals: []string{"urn:identity:orcid:u", "urn:group:candle-testers"},
	})
	found := false
	for _, h := range r.Hits {
		if h.Doc.ID == "candle/drug-response" {
			found = true
		}
	}
	if !found {
		t.Fatal("group member should see the CANDLE model")
	}
}

func TestFacets(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{
		Principals: []string{"urn:group:candle-testers"},
		FacetOn:    []string{"type", "domains"},
	})
	if r.Facets["type"]["keras"] != 2 || r.Facets["type"]["sklearn"] != 1 {
		t.Fatalf("type facet wrong: %v", r.Facets["type"])
	}
	if r.Facets["domains"]["cancer"] != 1 {
		t.Fatalf("domains facet wrong: %v", r.Facets["domains"])
	}
}

func TestFacetsCoverFullResultSetDespiteLimit(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{
		Principals: []string{"urn:group:candle-testers"},
		FacetOn:    []string{"type"},
		Limit:      1,
	})
	if len(r.Hits) != 1 {
		t.Fatalf("limit not applied: %d hits", len(r.Hits))
	}
	if r.Total != 3 {
		t.Fatalf("total should be pre-limit: %d", r.Total)
	}
	if r.Facets["type"]["keras"] != 2 {
		t.Fatalf("facets should be computed pre-limit: %v", r.Facets)
	}
}

func TestUpdateReplacesDoc(t *testing.T) {
	ix := seedIndex()
	ix.Ingest(Doc{
		ID:        "rchard/cifar10",
		Fields:    map[string]any{"title": "renamed model", "type": "tensorflow"},
		VisibleTo: []string{"public"},
	})
	if r := ix.Search(Query{Must: []Clause{{FreeText: "convolutional"}}}); r.Total != 0 {
		t.Fatal("stale tokens should be removed on update")
	}
	if r := ix.Search(Query{Must: []Clause{{Field: "type", Term: "tensorflow"}}}); r.Total != 1 {
		t.Fatal("new tokens should be searchable")
	}
}

func TestDelete(t *testing.T) {
	ix := seedIndex()
	ix.Delete("rchard/cifar10")
	ix.Delete("rchard/cifar10") // a double delete is a no-op
	testers := []string{"urn:group:candle-testers"}
	if r := ix.Search(Query{Principals: testers}); r.Total != 2 {
		t.Fatalf("want 2 docs after delete, got %d", r.Total)
	}
	if r := ix.Search(Query{Must: []Clause{{FreeText: "cifar"}}, Principals: testers}); r.Total != 0 {
		t.Fatal("deleted doc still searchable")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("CIFAR-10: image_classification (v2)")
	want := []string{"cifar", "10", "image", "classification", "v2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokenize wrong: %v", got)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty string should have no tokens")
	}
}

// Property: every ingested public doc is findable by any of its title
// tokens, and never findable after deletion.
func TestIngestFindDeleteProperty(t *testing.T) {
	ix := NewIndex()
	n := 0
	f := func(words []string) bool {
		n++
		id := fmt.Sprintf("doc-%d", n)
		title := ""
		for _, w := range words {
			title += w + " "
		}
		toks := Tokenize(title)
		ix.Ingest(Doc{ID: id, Fields: map[string]any{"title": title}, VisibleTo: []string{"public"}})
		for _, tok := range toks {
			r := ix.Search(Query{Must: []Clause{{Field: "title", Term: tok}}})
			found := false
			for _, h := range r.Hits {
				if h.Doc.ID == id {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		ix.Delete(id)
		for _, tok := range toks {
			r := ix.Search(Query{Must: []Clause{{Field: "title", Term: tok}}})
			for _, h := range r.Hits {
				if h.Doc.ID == id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: range [v,v] finds exactly the docs with value v.
func TestRangePointProperty(t *testing.T) {
	ix := NewIndex()
	vals := map[string]float64{}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("d%d", i)
		v := float64(i % 7)
		vals[id] = v
		ix.Ingest(Doc{ID: id, Fields: map[string]any{"score": v}, VisibleTo: []string{"public"}})
	}
	for v := 0.0; v < 7; v++ {
		r := ix.Search(Query{Must: []Clause{{Field: "score", Range: &Range{Min: v, Max: v}}}})
		want := 0
		for _, val := range vals {
			if val == v {
				want++
			}
		}
		if r.Total != want {
			t.Fatalf("point range %v: got %d want %d", v, r.Total, want)
		}
	}
}

func TestEmptyQueryReturnsAllVisible(t *testing.T) {
	ix := seedIndex()
	r := ix.Search(Query{})
	if r.Total != 2 {
		t.Fatalf("empty query should return public docs, got %d", r.Total)
	}
}

// TestPostingsAgainstRebuild is the model test for the per-document
// postings: after every step of a seeded random sequence of ingest,
// replace with different tokens, delete and re-ingest, inverted and
// numeric must equal those of an index built from the surviving
// documents alone — no stale posting, no empty token set or field left
// behind, no numeric entry for a deleted ID.
func TestPostingsAgainstRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	words := []string{"neural", "network", "random", "forest", "Cancer", "drug-response", "x_ray", "tomography", "10", ""}
	pick := func() string { return words[rng.Intn(len(words))] }
	randomDoc := func(id string) Doc {
		fields := map[string]any{"id": id, "title": pick() + " " + pick() + " " + pick() + " " + pick()}
		if rng.Intn(2) == 0 {
			fields["domains"] = []string{pick(), pick() + " " + pick()}
		}
		if rng.Intn(2) == 0 {
			fields["year"] = 2014 + rng.Intn(6)
		}
		if rng.Intn(3) == 0 {
			fields["published_at"] = int64(rng.Intn(1000))
		}
		if rng.Intn(3) == 0 {
			fields["score"] = rng.Float64()
		}
		return Doc{ID: id, Fields: fields, VisibleTo: []string{"public"}}
	}

	ix := NewIndex()
	live := map[string]Doc{}
	for step := 0; step < 2000; step++ {
		id := fmt.Sprintf("owner%d/model-%d", rng.Intn(5), rng.Intn(10))
		if _, ok := live[id]; ok && rng.Intn(3) == 0 {
			ix.Delete(id)
			delete(live, id)
		} else {
			live[id] = randomDoc(id)
			ix.Ingest(live[id])
		}
		rebuilt := NewIndex()
		for _, d := range live {
			rebuilt.Ingest(d)
		}
		if !reflect.DeepEqual(ix.inverted, rebuilt.inverted) {
			t.Fatalf("step %d (%s): inverted differs from a rebuild of the %d live documents\n got %v\nwant %v", step, id, len(live), ix.inverted, rebuilt.inverted)
		}
		if !reflect.DeepEqual(ix.numeric, rebuilt.numeric) {
			t.Fatalf("step %d (%s): numeric differs from a rebuild\n got %v\nwant %v", step, id, ix.numeric, rebuilt.numeric)
		}
	}
	for id := range live {
		ix.Delete(id)
	}
	if len(ix.inverted)+len(ix.numeric) != 0 {
		t.Fatalf("emptied index still holds inverted %v numeric %v", ix.inverted, ix.numeric)
	}
}
