package search

import (
	"fmt"
	"testing"
)

// corpus builds an n-document index shaped like a model repository.
func corpus(n int) *Index {
	ix := NewIndex()
	domains := []string{"materials science", "cancer research", "cosmology", "neuroanatomy", "genomics"}
	types := []string{"keras", "tensorflow", "sklearn", "python_function"}
	for i := 0; i < n; i++ {
		ix.Ingest(Doc{
			ID: fmt.Sprintf("user%d/model%d", i%50, i),
			Fields: map[string]any{
				"title":       fmt.Sprintf("model %d for %s prediction", i, domains[i%len(domains)]),
				"description": "a machine learning model predicting properties from structured scientific data",
				"type":        types[i%len(types)],
				"domains":     []string{domains[i%len(domains)]},
				"year":        2014 + i%6,
			},
			VisibleTo: []string{"public"},
		})
	}
	return ix
}

func BenchmarkIngest(b *testing.B) {
	ix := NewIndex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Ingest(Doc{
			ID:        fmt.Sprintf("d%d", i),
			Fields:    map[string]any{"title": "benchmark model ingest path", "year": 2019},
			VisibleTo: []string{"public"},
		})
	}
}

func BenchmarkFreeTextSearch(b *testing.B) {
	ix := corpus(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ix.Search(Query{Must: []Clause{{FreeText: "cancer prediction"}}, Limit: 10})
		if r.Total == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkFacetedSearch(b *testing.B) {
	ix := corpus(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ix.Search(Query{
			Must:    []Clause{{Field: "type", Term: "keras"}},
			FacetOn: []string{"domains", "year"},
		})
		if r.Total == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	ix := corpus(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ix.Search(Query{Must: []Clause{{Field: "year", Range: &Range{Min: 2016, Max: 2018}}}})
		if r.Total == 0 {
			b.Fatal("no hits")
		}
	}
}

// catalogueDoc is document i shaped like schema.Flatten's view of a
// published servable (the benchmark's repo-mixed catalogue): rev varies
// the description, as a PATCH does.
func catalogueDoc(i, rev int) Doc {
	id := fmt.Sprintf("anonymous/model-%d", i)
	fields := map[string]any{
		"id":           id,
		"owner":        "urn:anonymous",
		"version":      1,
		"name":         fmt.Sprintf("model-%d", i),
		"title":        fmt.Sprintf("Model %d for %s", i, []string{"enthalpy", "tomography", "cancer", "galaxies", "segmentation"}[i%5]),
		"description":  fmt.Sprintf("revision %d of a baseline that predicts properties from structured scientific data", rev),
		"authors":      []string{"Doe, Jane", "Roe, Richard"},
		"domains":      []string{"benchmark"},
		"year":         2014 + i%6,
		"type":         "python_function",
		"entry":        "noop:hello",
		"input.kind":   "string",
		"output.kind":  "string",
		"published_at": int64(1700000000 + i),
	}
	if i%12 == 0 { // ~40 of 500
		fields["description"] = fmt.Sprintf("revision %d of a perovskite stability screen", rev)
	}
	return Doc{ID: id, Fields: fields, VisibleTo: []string{"public", "urn:anonymous"}}
}

func catalogue(n int) *Index {
	ix := NewIndex()
	for i := 0; i < n; i++ {
		ix.Ingest(catalogueDoc(i, 0))
	}
	return ix
}

// BenchmarkIndexReplace re-ingests over an existing ID, which is what a
// metadata PATCH does to the index. Its cost must not grow with the
// index: a replace visits the replaced document's postings only.
func BenchmarkIndexReplace(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			ix := catalogue(n)
			// Two further revisions of 256 of the documents, taken in turn:
			// every replace changes the description's tokens.
			docs := make([]Doc, 512)
			for i := range docs {
				docs[i] = catalogueDoc(i%256, 1+i/256)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Ingest(docs[i%len(docs)])
			}
		})
	}
}

// BenchmarkIndexSearchPage is a free-text search that matches ~40 of 500
// documents and returns a page of 10: hits share the indexed documents,
// so the page costs no more objects than the matching does.
func BenchmarkIndexSearchPage(b *testing.B) {
	ix := catalogue(500)
	q := Query{Must: []Clause{{FreeText: "perovskite"}}, Principals: []string{"public"}, Limit: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ix.Search(q); r.Total != 42 || len(r.Hits) != 10 {
			b.Fatalf("total %d, page %d", r.Total, len(r.Hits))
		}
	}
}
