package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/schema"
	"repro/internal/servable"
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name string
	why  string
	cfg  stackConfig
	// warmup is the fixed number of requests (across both clients) sent
	// before the measured window.
	warmup int
	// tracedRequests is the traced pass's request count.
	tracedRequests int
	// source builds one client's request stream. n0 offsets the unique
	// keys so warm-up, window and traced pass never repeat one.
	source func(st *stack, seed int64, client, n0 int, expect string) source
}

const (
	helloWorld  = "hello world"
	hotKeys     = 2048
	batchInputs = 100
	batchFloats = 64
)

var workloads = []workload{
	{
		name: "run-direct",
		why:  "unique keys: every run misses the cache, is inserted and evicted, and crosses HTTP, auth, core, broker, TCP queue, TM and executor",
		cfg:  stackConfig{catalogue: 200},
		// Fills the 4,096-entry cache, so the window starts in the
		// insert-and-evict steady state.
		warmup:         4200,
		tracedRequests: 3000,
		source:         runSource,
	},
	{
		name:           "hotkey-direct",
		why:            "Zipf(1.1) over 2,048 cached keys: >=99% cache hits, so http and core are the whole path and dispatch is bypassed",
		cfg:            stackConfig{catalogue: 200},
		warmup:         hotKeys + 200,
		tracedRequests: 3000,
		source:         hotkeySource,
	},
	{
		name:           "batch-direct",
		why:            "run_batch of 100 x 64 floats (~50 KB), unique: one large message, payload encode/decode and TM fan-out dominate",
		cfg:            stackConfig{catalogue: 200},
		warmup:         300,
		tracedRequests: 1000,
		source:         batchSource,
	},
	{
		name:           "repo-mixed",
		why:            "catalogue of 500 on a WAL: 30% GET, 50% PATCH, 10% search, 10% unpublish+republish; repository reads beside writes, store and search index",
		cfg:            stackConfig{catalogue: 500, wal: true},
		warmup:         1000,
		tracedRequests: 3000,
		source:         repoSource,
	},
	{
		name:           "paper-wan",
		why:            "paper testbed (20.7 ms WAN, Parsl, python pods, anonymous): guard that injected sleeps still dominate; hot-path changes must not move it",
		cfg:            stackConfig{wan: true},
		warmup:         40,
		tracedRequests: 300,
		source:         runSource,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// withPlaceholder returns a copy of req and the bytes of the copy that
// hold its unique key.
func withPlaceholder(req []byte) (cp, slot []byte) {
	cp = bytes.Clone(req)
	i := bytes.Index(cp, []byte(placeholder))
	return cp, cp[i : i+len(placeholder)]
}

// refRequest carries body to the bare /ref handler, which decodes it, so
// the placeholder becomes digits.
func refRequest(body []byte) []byte {
	zeros := bytes.Repeat([]byte("0"), len(placeholder))
	return buildRequest("POST", "/ref", "", bytes.ReplaceAll(body, []byte(placeholder), zeros))
}

func runPath(st *stack) string { return "/api/v2/servables/" + st.owner + "/noop/run" }

// runSource sends single runs, each with a key no other request has.
func runSource(st *stack, seed int64, client, n0 int, expect string) source {
	body := []byte(`{"input":"k` + placeholder + `"}`)
	req, slot := withPlaceholder(buildRequest("POST", runPath(st), st.auth, body))
	o := &op{req: req, ref: refRequest(body), status: 200, want: []byte(`"output":` + strconv.Quote(expect))}
	n := n0
	return func() *op {
		patchDecimal(slot, uniqueKey(seed, client, n))
		n++
		return o
	}
}

// hotkeySource draws keys from a Zipf distribution over a fixed set;
// the first hotKeys draws walk the set once so a warm-up fills the cache.
func hotkeySource(st *stack, seed int64, client, n0 int, expect string) source {
	ops := make([]op, hotKeys)
	want := []byte(`"output":` + strconv.Quote(expect))
	for i := range ops {
		body := []byte(fmt.Sprintf(`{"input":"hot-%d-%04d"}`, seed, i))
		ops[i] = op{req: buildRequest("POST", runPath(st), st.auth, body), ref: refRequest(body), status: 200, want: want}
	}
	r := rand.New(rand.NewSource(seed<<8 + int64(client)))
	zipf := rand.NewZipf(r, 1.1, 1, hotKeys-1)
	n := n0
	return func() *op {
		i := int(zipf.Uint64())
		if n < hotKeys/2 {
			// Two warm-up clients cover the set between them.
			i = 2*n + client
		}
		n++
		return &ops[i]
	}
}

// batchSource sends run_batch requests of seeded floats; the first
// number of each is unique, so no batch repeats.
func batchSource(st *stack, seed int64, client, n0 int, expect string) source {
	r := rand.New(rand.NewSource(seed<<8 + int64(client)))
	body := []byte(`{"inputs":[`)
	for i := 0; i < batchInputs; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, '[')
		for j := 0; j < batchFloats; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			if i == 0 && j == 0 {
				body = append(body, "1"+placeholder...)
				continue
			}
			body = strconv.AppendFloat(body, r.Float64(), 'f', 6, 64)
		}
		body = append(body, ']')
	}
	body = append(body, "]}"...)
	req, slot := withPlaceholder(buildRequest("POST", runPath(st), st.auth, body))
	o := &op{req: req, ref: refRequest(body), status: 200, want: []byte(strconv.Quote(expect)), wantCount: batchInputs}
	n := n0
	return func() *op {
		patchDecimal(slot, uniqueKey(seed, client, n))
		n++
		return o
	}
}

// catalogueEntry is one published servable and the requests that read
// and write it.
type catalogueEntry struct {
	id      string
	pkg     *servable.Package
	docJSON []byte
}

// Search queries use title words only, and only the stable entries'
// titles carry them: titles never change and stable entries are never
// unpublished, so each word's hit count is fixed however the writes
// interleave.
var (
	titleWords = strings.Fields("alloy bandgap crystal dendrite enzyme fracture galaxy hadron isotope jet kinase lattice magnet neutron oxide polymer quasar ribosome spectra tokamak")
	descWords  = strings.Fields("predicts classifies estimates segments ranks screens denoises detects from measured simulated curated labelled samples images sequences structures")
)

// churnShare of the catalogue, its tail, is what repo-mixed unpublishes
// and republishes; the rest is only read and patched.
const churnShare = 5

func newCatalogue(seed int64, n int, owner string) []catalogueEntry {
	r := rand.New(rand.NewSource(seed))
	docs := make([]catalogueEntry, n)
	for i := range docs {
		title := titleWords[r.Intn(len(titleWords))] + " " + titleWords[r.Intn(len(titleWords))] + " model"
		if i >= n-n/churnShare {
			title = "transient model"
		}
		desc := make([]string, 8)
		for j := range desc {
			desc[j] = descWords[r.Intn(len(descWords))]
		}
		name := fmt.Sprintf("m-%04d", i)
		doc := &schema.Document{
			Publication: schema.Publication{
				Name:        name,
				Title:       title,
				Authors:     []string{"Bench, A.", "Mark, B."},
				Description: strings.Join(desc, " "),
				Domains:     []string{"benchmarking"},
				VisibleTo:   []string{"public"},
				Year:        2000 + r.Intn(20),
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  "noop:hello",
				Input:  schema.DataType{Kind: "string"},
				Output: schema.DataType{Kind: "string"},
			},
		}
		docJSON, err := json.Marshal(doc)
		if err != nil {
			panic(err) // a fixed struct of strings and ints always encodes
		}
		servable.RegisterBuiltins()
		docs[i] = catalogueEntry{id: owner + "/" + name, pkg: &servable.Package{Doc: doc}, docJSON: docJSON}
	}
	return docs
}

// titleCount is how many catalogue titles contain word.
func titleCount(docs []catalogueEntry, word string) int {
	n := 0
	for i := range docs {
		if strings.Contains(docs[i].pkg.Doc.Publication.Title, word) {
			n++
		}
	}
	return n
}

// repoSource mixes repository reads and writes in exact proportions.
// Each pass over a reshuffled deck sends 20 requests: 6 GET, 10 PATCH,
// 2 search, and one unpublish followed by a publish of the same entry.
// Republishing in place of publishing new versions keeps the repository
// the same size however many requests a window holds, so that
// allocs_per_op does not depend on how fast the host is. With half the
// requests PATCHes, the median request is a write and the p95 a search.
func repoSource(st *stack, seed int64, client, n0 int, _ string) source {
	const (
		opGet = iota
		opPatch
		opSearch
		opRepublish
	)
	var deck []int
	for kind, count := range []int{opGet: 6, opPatch: 10, opSearch: 2, opRepublish: 1} {
		for i := 0; i < count; i++ {
			deck = append(deck, kind)
		}
	}
	emptyRef := buildRequest("POST", "/ref", "", nil)
	patchBody := []byte(`{"description":"revised by the benchmark, revision ` + placeholder + `"}`)
	patchRef := refRequest(patchBody)
	gets := make([]op, len(st.docs))
	patches := make([]op, len(st.docs))
	unpublishes := make([]op, len(st.docs))
	publishes := make([]op, len(st.docs))
	// Each client writes its own half of the catalogue: a PATCH answers
	// with the document as it then stands, and a GET must find its entry
	// published, so no client may write under another.
	var stable, churn []int
	firstChurn := len(st.docs) - len(st.docs)/churnShare
	for i := client; i < len(st.docs); i += clients {
		e := &st.docs[i]
		path := "/api/v2/servables/" + e.id
		idField := []byte(`"id":` + strconv.Quote(e.id))
		if i < firstChurn {
			stable = append(stable, i)
			gets[i] = op{req: buildRequest("GET", path, st.auth, nil), ref: emptyRef, status: 200, want: idField}
			// The PATCH must come back carrying the revision it wrote.
			req, slot := withPlaceholder(buildRequest("PATCH", path, st.auth, patchBody))
			patches[i] = op{req: req, ref: patchRef, status: 200, want: slot}
			continue
		}
		churn = append(churn, i)
		unpublishes[i] = op{req: buildRequest("DELETE", path, st.auth, nil), ref: emptyRef, status: 200, want: []byte(`"status":"unpublished"`)}
		body := []byte(`{"document":` + string(e.docJSON) + `}`)
		publishes[i] = op{req: buildRequest("POST", "/api/v2/servables", st.auth, body), ref: refRequest(body), status: 201, want: idField}
	}
	searches := make([]op, len(titleWords))
	for i, word := range titleWords {
		body := []byte(`{"q":` + strconv.Quote(word) + `,"limit":10}`)
		// The exact hit count, delimited by what follows it in the page:
		// a cursor when there are more hits than the limit.
		total := titleCount(st.docs, word)
		want := `"total":` + strconv.Itoa(total) + `}`
		if total > 10 {
			want = `"total":` + strconv.Itoa(total) + `,"next_cursor"`
		}
		searches[i] = op{req: buildRequest("POST", "/api/v2/search", st.auth, body), ref: refRequest(body), status: 200, want: []byte(want)}
	}

	r := rand.New(rand.NewSource(seed<<8 + int64(client)))
	n, next := n0, len(deck)
	var republish *op
	return func() *op {
		n++
		if republish != nil {
			o := republish
			republish = nil
			return o
		}
		if next == len(deck) {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			next = 0
		}
		kind := deck[next]
		next++
		target := stable[r.Intn(len(stable))]
		switch kind {
		case opGet:
			return &gets[target]
		case opSearch:
			return &searches[r.Intn(len(searches))]
		case opRepublish:
			target = churn[r.Intn(len(churn))]
			republish = &publishes[target]
			return &unpublishes[target]
		}
		patchDecimal(patches[target].want, uniqueKey(seed, client, n))
		return &patches[target]
	}
}
