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
		old, ok := live[id]
		switch {
		case ok && rng.Intn(3) == 0:
			ix.Delete(id)
			delete(live, id)
		case ok && rng.Intn(2) == 0:
			// A replace that changes, adds or drops a single field.
			live[id] = replaceOneField(old, randomDoc(id), rng)
			ix.Ingest(live[id])
		default:
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

// replaceOneField is old with one field taken from fresh — changed,
// added, or (absent from fresh) dropped — as a metadata PATCH makes it.
// The index holds old's map, so the copy is a new one.
func replaceOneField(old, fresh Doc, rng *rand.Rand) Doc {
	fields := make(map[string]any, len(old.Fields)+1)
	for k, v := range old.Fields {
		fields[k] = v
	}
	names := []string{"title", "domains", "year", "published_at", "score"}
	name := names[rng.Intn(len(names))]
	if v, ok := fresh.Fields[name]; ok {
		fields[name] = v
	} else {
		delete(fields, name)
	}
	return Doc{ID: old.ID, Fields: fields, VisibleTo: fresh.VisibleTo}
}

// referenceSearch is Search as it was before its candidates came from the
// clauses: every visible document, then intersected clause by clause.
func referenceSearch(ix *Index, q Query) Result {
	candidates := make(map[string]float64)
	for id, d := range ix.docs {
		if Visible(d.VisibleTo, q.Principals) {
			candidates[id] = 0
		}
	}
	for _, c := range q.Must {
		matched := ix.evalClause(c)
		for id := range candidates {
			sc, ok := matched[id]
			if !ok {
				delete(candidates, id)
				continue
			}
			candidates[id] += sc
		}
	}
	hits := make([]Hit, 0, len(candidates))
	for id, score := range candidates {
		hits = append(hits, Hit{Doc: &ix.docs[id].Doc, Score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc.ID < hits[j].Doc.ID
	})
	res := Result{Total: len(hits)}
	if len(q.FacetOn) > 0 {
		res.Facets = make(map[string]map[string]int)
		for _, field := range q.FacetOn {
			counts := make(map[string]int)
			for _, h := range hits {
				switch v := h.Doc.Fields[field].(type) {
				case string:
					counts[v]++
				case []string:
					for _, s := range v {
						counts[s]++
					}
				case int, int64, float64:
					counts[fmt.Sprint(v)]++
				}
			}
			res.Facets[field] = counts
		}
	}
	hits = hits[min(max(q.Offset, 0), len(hits)):]
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[:q.Limit]
	}
	res.Hits = hits
	return res
}

// TestSearchAgainstReference runs random multi-clause queries as random
// principals over a random catalogue while it is ingested, replaced one
// field or whole, deleted and re-ingested, and requires every answer —
// hits, their order, bit-exact scores, Total and facets — to equal the
// reference's.
func TestSearchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	words := []string{"neural", "network", "random", "forest", "cancer", "drug", "x_ray", "tomography", "10", "perovskite"}
	pick := func() string { return words[rng.Intn(len(words))] }
	acls := [][]string{{"public"}, {"urn:owner:0"}, {"urn:owner:1"}, {"urn:group:a", "urn:owner:2"}, {"public", "urn:group:b"}, nil}
	randomDoc := func(id string) Doc {
		fields := map[string]any{"id": id, "title": pick() + " " + pick(), "description": pick() + " " + pick() + " " + pick()}
		if rng.Intn(2) == 0 {
			fields["domains"] = []string{pick(), pick()}
		}
		if rng.Intn(2) == 0 {
			fields["year"] = 2014 + rng.Intn(6)
		}
		if rng.Intn(2) == 0 {
			fields["score"] = rng.Float64()
		}
		return Doc{ID: id, Fields: fields, VisibleTo: acls[rng.Intn(len(acls))]}
	}
	randomClause := func() Clause {
		switch rng.Intn(4) {
		case 0:
			return Clause{FreeText: pick() + " " + pick()}
		case 1:
			return Clause{Field: []string{"title", "description", "domains"}[rng.Intn(3)], Term: pick()}
		case 2:
			w := pick()
			return Clause{Field: []string{"title", "description"}[rng.Intn(2)], Prefix: w[:1+rng.Intn(len(w))]}
		}
		switch rng.Intn(3) {
		case 0:
			return Clause{Field: "score", Range: &Range{Min: rng.Float64() / 2, Max: 0.5 + rng.Float64()/2}}
		case 1:
			return Clause{Field: "year", Range: &Range{Min: math.NaN(), Max: 2016}}
		}
		return Clause{Field: "year", Range: &Range{Min: 2014 + float64(rng.Intn(6)), Max: math.NaN()}}
	}
	principals := [][]string{nil, {"urn:owner:0"}, {"urn:owner:1"}, {"urn:group:a", "urn:owner:2"}, {"urn:group:b"}}
	facets := [][]string{nil, {"domains"}, {"year", "title"}}

	ix := NewIndex()
	live := map[string]Doc{}
	var gone []string
	for step := 0; step < 600; step++ {
		id := fmt.Sprintf("owner%d/model-%d", rng.Intn(4), rng.Intn(20))
		old, ok := live[id]
		switch {
		case ok && rng.Intn(4) == 0:
			ix.Delete(id)
			delete(live, id)
			gone = append(gone, id)
		case ok && rng.Intn(2) == 0:
			live[id] = replaceOneField(old, randomDoc(id), rng)
			ix.Ingest(live[id])
		case !ok && len(gone) > 0 && rng.Intn(2) == 0: // re-ingest a deleted ID
			id = gone[rng.Intn(len(gone))]
			if _, back := live[id]; !back {
				live[id] = randomDoc(id)
				ix.Ingest(live[id])
			}
		default: // first ingest or replace-all
			live[id] = randomDoc(id)
			ix.Ingest(live[id])
		}
		for i := 0; i < 4; i++ {
			q := Query{Principals: principals[rng.Intn(len(principals))], FacetOn: facets[rng.Intn(len(facets))]}
			for n := rng.Intn(4); n > 0; n-- {
				q.Must = append(q.Must, randomClause())
			}
			if rng.Intn(2) == 0 {
				q.Offset, q.Limit = rng.Intn(5), rng.Intn(8)
			}
			got, want := ix.Search(q), referenceSearch(ix, q)
			if got.Total != want.Total || len(got.Hits) != len(want.Hits) || !reflect.DeepEqual(got.Facets, want.Facets) {
				t.Fatalf("step %d %+v: total %d, %d hits, facets %v; want %d, %d, %v", step, q, got.Total, len(got.Hits), got.Facets, want.Total, len(want.Hits), want.Facets)
			}
			for j := range got.Hits {
				g, w := got.Hits[j], want.Hits[j]
				if g.Doc.ID != w.Doc.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("step %d %+v: hit %d is %s (%v), want %s (%v)", step, q, j, g.Doc.ID, g.Score, w.Doc.ID, w.Score)
				}
			}
		}
	}
}
