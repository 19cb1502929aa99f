// Package search is the Globus-Search-like metadata index of §IV-A:
// "DLHub's search interface supports fine-grained, access-controlled
// queries over model metadata ... free text queries, partial matching,
// range queries, faceted search, and more."
//
// Documents are flat maps of dotted field names to scalars or string
// lists. The index maintains an inverted index for text fields, numeric
// postings for range queries, and a per-document principal list
// ("visible_to") applied as a mandatory filter on every query.
package search

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
)

// Doc is an indexed document. The index keeps the Doc it is handed and
// hands the same one out in every Hit: Fields and VisibleTo are
// read-only from Ingest on, for the caller and for whoever holds a hit.
type Doc struct {
	ID     string
	Fields map[string]any
	// VisibleTo lists ACL principals that may see this document.
	VisibleTo []string
}

// Index is an in-memory search index with no lock of its own: its owner
// (core's repository) runs Ingest and Delete one at a time, and never
// beside a Search, under the lock that guards what the index describes.
type Index struct {
	docs map[string]*indexed
	// inverted: field -> token -> docID set.
	inverted map[string]map[string]map[string]bool
	// numeric: field -> docID -> value (range queries scan; fine at
	// repository scale).
	numeric map[string]map[string]float64
}

// indexed is a document and its postings, so that a replace or delete
// visits the document's own entries and not every posting list.
type indexed struct {
	Doc
	postings []posting
}

// posting is what the index holds for one field of a document: its ID
// under each of tokens in inverted, or (tokens nil) its value in numeric.
type posting struct {
	field  string
	tokens []string
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		docs:     make(map[string]*indexed),
		inverted: make(map[string]map[string]map[string]bool),
		numeric:  make(map[string]map[string]float64),
	}
}

// Tokenize lower-cases and splits on non-alphanumeric runes.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Ingest adds or replaces a document. A replace keeps the postings of
// unchanged fields and re-posts only changed, vanished and new ones.
func (ix *Index) Ingest(doc Doc) {
	// A field is one posting at most, so the slice is sized once.
	d := &indexed{Doc: doc, postings: make([]posting, 0, len(doc.Fields))}
	var old Doc // a first ingest keeps nothing
	if o, ok := ix.docs[doc.ID]; ok {
		old = o.Doc
		for _, p := range o.postings {
			if sameValue(old.Fields[p.field], doc.Fields[p.field]) {
				d.postings = append(d.postings, p)
			} else {
				ix.unpost(doc.ID, p)
			}
		}
	}
	ix.docs[doc.ID] = d
	for field, value := range doc.Fields {
		if sameValue(old.Fields[field], value) {
			continue // its posting, if it has one, was kept
		}
		switch v := value.(type) {
		case string:
			ix.indexTokens(d, field, v)
		case []string:
			ix.indexTokens(d, field, strings.Join(v, " "))
		case int:
			ix.indexNumber(d, field, float64(v))
		case int64:
			ix.indexNumber(d, field, float64(v))
		case float64:
			ix.indexNumber(d, field, v)
		}
	}
}

// sameValue reports whether a and b are one value of a kind Ingest posts.
func sameValue(a, b any) bool {
	switch a := a.(type) {
	case []string:
		b, ok := b.([]string)
		return ok && slices.Equal(a, b)
	case string, int, int64, float64:
		return a == b
	}
	return false
}

func (ix *Index) indexTokens(d *indexed, field, text string) {
	tokens := Tokenize(text)
	if len(tokens) == 0 {
		return
	}
	byTok, ok := ix.inverted[field]
	if !ok {
		byTok = make(map[string]map[string]bool)
		ix.inverted[field] = byTok
	}
	for _, tok := range tokens {
		set, ok := byTok[tok]
		if !ok {
			set = make(map[string]bool)
			byTok[tok] = set
		}
		set[d.ID] = true
	}
	d.postings = append(d.postings, posting{field, tokens})
}

func (ix *Index) indexNumber(d *indexed, field string, v float64) {
	byDoc, ok := ix.numeric[field]
	if !ok {
		byDoc = make(map[string]float64)
		ix.numeric[field] = byDoc
	}
	byDoc[d.ID] = v
	d.postings = append(d.postings, posting{field: field})
}

// Delete removes a document and every posting it has, leaving no empty
// token set or field behind; an unknown ID is a no-op.
func (ix *Index) Delete(id string) {
	d, ok := ix.docs[id]
	if !ok {
		return
	}
	delete(ix.docs, id)
	for _, p := range d.postings {
		ix.unpost(id, p)
	}
}

// unpost removes one posting of document id.
func (ix *Index) unpost(id string, p posting) {
	if p.tokens == nil {
		byDoc := ix.numeric[p.field]
		if delete(byDoc, id); len(byDoc) == 0 {
			delete(ix.numeric, p.field)
		}
		return
	}
	byTok := ix.inverted[p.field]
	for _, tok := range p.tokens { // a repeated token finds its set gone
		set := byTok[tok]
		if delete(set, id); len(set) == 0 {
			delete(byTok, tok)
		}
	}
	if len(byTok) == 0 {
		delete(ix.inverted, p.field)
	}
}

// --- query model --------------------------------------------------------

// Clause is one boolean constraint.
type Clause struct {
	// Exactly one of the following is set.

	// FreeText matches tokens across all text fields (scored).
	FreeText string
	// Field + one matcher below for fielded constraints.
	Field string
	// Term requires every token of its value in Field.
	Term string
	// Prefix requires a token with the given prefix in Field (partial
	// matching).
	Prefix string
	// Range requires Field's numeric value within [Min,Max] (either
	// bound may be NaN for open).
	Range *Range
}

// Range is a numeric interval; use math.NaN() for an open bound.
type Range struct{ Min, Max float64 }

// Query combines clauses (all must match) with optional facets.
type Query struct {
	Must []Clause
	// FacetOn lists fields whose value distribution over the result
	// set should be returned.
	FacetOn []string
	// Principals is the caller's ACL identity set; documents whose
	// VisibleTo does not intersect it are invisible. Empty principals
	// see only documents visible to "public".
	Principals []string
	// Limit bounds results (0 = no limit).
	Limit int
	// Offset skips that many ranked hits before the returned page —
	// the server side of cursor pagination (Total still counts the
	// full result set).
	Offset int
}

// Hit is one scored result. Doc is the indexed document itself, shared
// with the index and every other hit for it: read-only.
type Hit struct {
	Doc   *Doc
	Score float64
}

// Result is a query response.
type Result struct {
	Hits   []Hit
	Total  int
	Facets map[string]map[string]int
}

// Search evaluates q. The candidates are the matches of the clause that
// matched fewest documents, kept where every clause matched and the
// caller may see them; a query without clauses lists what it may see.
func (ix *Index) Search(q Query) Result {
	var hits []Hit
	if len(q.Must) == 0 {
		hits = make([]Hit, 0, len(ix.docs))
		for _, d := range ix.docs {
			if Visible(d.VisibleTo, q.Principals) {
				hits = append(hits, Hit{Doc: &d.Doc})
			}
		}
	} else {
		matched := make([]map[string]float64, len(q.Must))
		rarest := 0
		for i, c := range q.Must {
			if matched[i] = ix.evalClause(c); len(matched[i]) < len(matched[rarest]) {
				rarest = i
			}
		}
		hits = make([]Hit, 0, len(matched[rarest]))
	candidates:
		for id := range matched[rarest] {
			d := ix.docs[id]
			if !Visible(d.VisibleTo, q.Principals) {
				continue
			}
			// In clause order, whichever clause supplied the candidates.
			var score float64
			for _, m := range matched {
				sc, ok := m[id]
				if !ok {
					continue candidates
				}
				score += sc
			}
			hits = append(hits, Hit{Doc: &d.Doc, Score: score})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc.ID < hits[j].Doc.ID
	})

	res := Result{Total: len(hits)}
	if len(q.FacetOn) > 0 {
		// Facets are computed over the full result set, not the
		// returned page.
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

// Visible is the one visibility rule: a document is visible to a caller
// when its visible_to list names "public" or one of the caller's
// principals.
func Visible(visibleTo, principals []string) bool {
	for _, v := range visibleTo {
		if v == "public" || slices.Contains(principals, v) {
			return true
		}
	}
	return false
}

// evalClause returns matching docID -> score contribution.
func (ix *Index) evalClause(c Clause) map[string]float64 {
	out := make(map[string]float64)
	switch {
	case c.FreeText != "":
		// TF-IDF-ish: rarer tokens score higher; any-token match (OR
		// within the clause), all-clause AND at the query level.
		// Fields in name order: a match in several sums alike every time.
		n := float64(len(ix.docs))
		fields := make([]string, 0, len(ix.inverted))
		for field := range ix.inverted {
			fields = append(fields, field)
		}
		slices.Sort(fields)
		for _, tok := range Tokenize(c.FreeText) {
			for _, field := range fields {
				if set, ok := ix.inverted[field][tok]; ok {
					idf := math.Log(1 + n/float64(len(set)))
					for id := range set {
						out[id] += idf
					}
				}
			}
		}
	case c.Term != "":
		// A value is indexed as its tokens ("python_function" as python
		// and function), so it matches where the field has all of them.
		byTok := ix.inverted[c.Field]
		for i, tok := range Tokenize(c.Term) {
			set := byTok[tok]
			if i == 0 {
				for id := range set {
					out[id] = 1
				}
			}
			for id := range out {
				if !set[id] {
					delete(out, id)
				}
			}
		}
	case c.Prefix != "":
		pre := strings.ToLower(c.Prefix)
		for tok, set := range ix.inverted[c.Field] {
			if strings.HasPrefix(tok, pre) {
				for id := range set {
					out[id] += 1
				}
			}
		}
	case c.Range != nil:
		for id, v := range ix.numeric[c.Field] {
			if (math.IsNaN(c.Range.Min) || v >= c.Range.Min) &&
				(math.IsNaN(c.Range.Max) || v <= c.Range.Max) {
				out[id] += 1
			}
		}
	}
	return out
}
