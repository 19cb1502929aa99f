package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/outcome"
)

// key is a cache key for a test that names its entries.
func key(name string) cacheKey { return sha256.Sum256([]byte(name)) }

// testResult is a hand-built result whose payload is out's bytes.
func testResult(out string) RunResult {
	res := RunResult{}
	res.OK = true
	res.Output = json.RawMessage(out)
	return res
}

// get reads the cache as a plain LRU: a lookup whose miss leads a call
// finishes it at once, unstored.
func (c *resultCache) get(key cacheKey) (RunResult, bool) {
	res, call, lead := c.lookup(key, "")
	if lead {
		c.finish(call, RunResult{}, errNoResult)
	}
	return res, call == nil
}

var errNoResult = errors.New("no result")

// put stores res under key as a leader's finish does.
func (c *resultCache) put(key cacheKey, servableID string, res RunResult) {
	if call, cl := c.flights.Lead(key, servableID, RunResult{}); cl == outcome.ClaimLead {
		c.finish(call, res, nil)
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(CacheConfig{MaxEntries: 2})
	c.put(key("a"), "s1", testResult("a"))
	c.put(key("b"), "s1", testResult("b"))
	if _, ok := c.get(key("a")); !ok { // touch a -> b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put(key("c"), "s1", testResult("c"))
	if _, ok := c.get(key("b")); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if _, ok := c.get(key("a")); !ok {
		t.Fatal("a should have survived eviction")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("want 1 eviction / 2 entries, got %+v", st)
	}
}

func TestResultCacheTTL(t *testing.T) {
	now := time.Now()
	c := newResultCache(CacheConfig{TTL: time.Minute})
	c.flights.Now = func() time.Time { return now }
	c.put(key("k"), "s1", testResult("v"))
	if _, ok := c.get(key("k")); !ok {
		t.Fatal("fresh entry should hit")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.get(key("k")); ok {
		t.Fatal("expired entry should miss")
	}
	st := c.stats()
	if st.Expirations != 1 || st.Entries != 0 {
		t.Fatalf("want 1 expiration / 0 entries, got %+v", st)
	}
}

func TestResultCacheInvalidate(t *testing.T) {
	c := newResultCache(CacheConfig{})
	c.put(key("k1"), "s1", testResult("1"))
	c.put(key("k2"), "s1", testResult("2"))
	c.put(key("k3"), "s2", testResult("3"))
	if n := c.invalidate("s1"); n != 2 {
		t.Fatalf("want 2 invalidated, got %d", n)
	}
	if _, ok := c.get(key("k1")); ok {
		t.Fatal("k1 should be gone")
	}
	if _, ok := c.get(key("k3")); !ok {
		t.Fatal("k3 (other servable) should survive")
	}
	c.flush()
	if st := c.stats(); st.Entries != 0 || st.Invalidations != 3 {
		t.Fatalf("flush wrong: %+v", st)
	}
}

func TestResultKeyCanonicalJSON(t *testing.T) {
	// The key is over the input's canonical JSON — json.Marshal of the
	// decoded value — so neither member order, whitespace nor the
	// spelling of a string at the client can split cache entries.
	// Whitespace outside an object is the producers' to remove: a
	// payload reaches the key compacted.
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	k1, err := resultKey("o/m", 1, raw(`{"a":1.0,"b":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []string{
		`{"b":"x","a":1.0}`,
		`{ "a" : 1.0 , "b" : "x" }`,
		`{"a":1.0,"b":"\u0078"}`,
	} {
		if k, _ := resultKey("o/m", 1, raw(same)); k != k1 {
			t.Fatalf("%s should share the key of its equal", same)
		}
	}
	marshaled, _ := json.Marshal(map[string]any{"b": "x", "a": json.Number("1.0")})
	if k, _ := resultKey("o/m", 1, marshaled); k != k1 {
		t.Fatal("a marshaled value should share the key of its JSON text")
	}
	// Number text is part of the input: 1.0 and 1 are different bytes.
	if k, _ := resultKey("o/m", 1, raw(`{"a":1,"b":"x"}`)); k == k1 {
		t.Fatal("number text should partition the key space")
	}
	// Version, kind, servable and input all partition the key space.
	in := raw(`{"a":1.0,"b":"x"}`)
	others := map[string]func() (cacheKey, error){
		"version":  func() (cacheKey, error) { return resultKey("o/m", 2, in) },
		"kind":     func() (cacheKey, error) { return batchKey("o/m", 1, []json.RawMessage{in}) },
		"servable": func() (cacheKey, error) { return resultKey("o/m2", 1, in) },
		"input":    func() (cacheKey, error) { return resultKey("o/m", 1, raw(`{"a":2.0,"b":"x"}`)) },
	}
	for what, key := range others {
		if k, err := key(); err != nil || k == k1 {
			t.Fatalf("key collision on %s (err %v)", what, err)
		}
	}
	// A batch is keyed as one array: [1,2] is not [12], nor [[1,2]].
	b1, _ := batchKey("o/m", 1, []json.RawMessage{raw("1"), raw("2")})
	b2, _ := batchKey("o/m", 1, []json.RawMessage{raw("12")})
	b3, _ := batchKey("o/m", 1, []json.RawMessage{raw("[1,2]")})
	b4, _ := batchKey("o/m", 1, []json.RawMessage{compacted(raw(" 1")), compacted(raw("2 "))})
	if b1 == b2 || b1 == b3 || b1 != b4 {
		t.Fatal("batch keys must follow the inputs' JSON array")
	}
}

// FuzzResultKey checks the canonical-key contract on arbitrary
// documents: the key computed from a payload as run takes it (compacted,
// then written as it is, or re-encoded when it holds something Marshal
// would spell differently) equals the key of the decode-and-Marshal
// form the cache was keyed on before payloads passed through as bytes —
// for the document as sent, compact or spaced out.
func FuzzResultKey(f *testing.F) {
	for _, seed := range []string{
		`"x"`, `9007199254740993`, `1e-7`, `-0`, `1E+2`, `null`, `true`,
		`[1, 2.50, "a"]`, ` [ ] `, `{"b":1,"a":{"d":[],"c":null}}`, `{"a":1,"a":2}`,
		`"\u00e9"`, `"é"`, `"a<b>&c"`, `"\u2028"`, "\"\u2028\"", `"tab\there"`, `"\ud83d\ude00"`, `"\ud800"`,
		"\"\xff\"", `[[0.1,0.2],[0.3]]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Skip()
		}
		if _, err := dec.Token(); err != io.EOF {
			t.Skip() // more than one document
		}
		canonical, err := json.Marshal(v)
		if err != nil {
			t.Skip()
		}
		want, err := resultKey("o/m", 3, canonical)
		if err != nil {
			t.Fatalf("canonical form %s: %v", canonical, err)
		}
		// The document as sent, compact, and spaced out with newlines and
		// tabs: one key. spaced is exactly "json.Compact would change it".
		var compact, indented bytes.Buffer
		json.Compact(&compact, doc)                        //nolint:errcheck — doc decoded above
		json.Indent(&indented, compact.Bytes(), " ", "\t") //nolint:errcheck — as above
		if spaced(doc) == bytes.Equal(compact.Bytes(), doc) {
			t.Fatalf("spaced(%q) = %v, but Compact gives %q", doc, spaced(doc), compact.Bytes())
		}
		for _, form := range [][]byte{compacted(doc), compact.Bytes(), compacted(indented.Bytes())} {
			got, err := resultKey("o/m", 3, form)
			if err != nil {
				t.Fatalf("raw form %q: %v", form, err)
			}
			if got != want {
				t.Fatalf("raw %q keyed apart from its canonical form %s", form, canonical)
			}
		}
		// The canonical form is a fixed point: hashing it is hashing
		// its own bytes.
		h := sha256.New()
		h.Write([]byte("o/m\x00\x03\x00\x00\x00run\x00"))
		h.Write(canonical)
		if want != cacheKey(h.Sum(nil)) {
			t.Fatalf("key of %s is not the hash of its canonical bytes", canonical)
		}
	})
}

// TestRespelledFindsEachTrigger: the eight-byte scan in respelled finds
// each byte that makes Marshal spell a payload differently, at every
// position of a word and in the tail after the last whole word, and
// passes over the bytes of a compact number array.
func TestRespelledFindsEachTrigger(t *testing.T) {
	for _, n := range []int{8, 16, 13, 5} { // whole words, and a tail
		base := bytes.Repeat([]byte("1"), n)
		if respelled(base) {
			t.Fatalf("%q is not respelled", base)
		}
		for _, c := range []byte{'{', '\\', '<', '>', '&', 0x80, 0xc3, 0xff} {
			for i := range base {
				raw := bytes.Clone(base)
				raw[i] = c
				if !respelled(raw) {
					t.Fatalf("respelled missed %q at %d of %d bytes", c, i, n)
				}
			}
		}
	}
	if vec := []byte(`[[0.1,-2e-7,3E+8,"a b",null,true,false],[]]`); respelled(vec) {
		t.Fatalf("%s is not respelled", vec)
	}
}

// mustLead looks key up on servable and requires a new call to lead.
func mustLead(t *testing.T, c *resultCache, k cacheKey, servableID string) *flight {
	t.Helper()
	_, call, lead := c.lookup(k, servableID)
	if call == nil || !lead {
		t.Fatalf("lookup of %x on %s: call %p, lead %v; want a new call to lead", k[:4], servableID, call, lead)
	}
	return call
}

func TestResultCacheCollapsesMisses(t *testing.T) {
	c := newResultCache(CacheConfig{})
	const callers = 8
	calls := make([]*flight, callers)
	leads := make([]bool, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, calls[i], leads[i] = c.lookup(key("k"), "s1")
		}()
	}
	wg.Wait()
	var leader *flight
	for i, call := range calls {
		if leads[i] {
			if leader != nil {
				t.Fatal("two callers lead one key")
			}
			leader = call
		}
	}
	if leader == nil {
		t.Fatal("no caller leads")
	}
	// Every other caller follows the leader's one call.
	for i, call := range calls {
		if call != leader {
			t.Fatalf("caller %d follows another call", i)
		}
	}
	c.finish(leader, testResult("once"), nil)
	if got := follow(t, c, leader); string(got.Val.Output) != "once" || got.Err != nil {
		t.Fatalf("followers see %s, %v", got.Val.Output, got.Err)
	}
	if st := c.stats(); st.Misses != callers || st.Entries != 1 {
		t.Fatalf("want %d misses and the one result stored, got %+v", callers, st)
	}
	if res, ok := c.get(key("k")); !ok || string(res.Output) != "once" {
		t.Fatal("the leader's result should hit")
	}
}

// follow waits on call as a follower that takes any outcome, and
// returns the entry it took.
func follow(t *testing.T, c *resultCache, call *flight) *flight {
	t.Helper()
	got, _, err := c.flights.Follow(context.Background(), call, func(*flight) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOutcomesLeaderPanicIsInternal: a cache leader that unwinds
// without finishing — a panic, recovered further up — is finished by
// its deferred Abandon with errAborted, as serveMiss defers it: its
// followers answer internal, nothing is stored, and the next lookup
// leads afresh.
func TestOutcomesLeaderPanicIsInternal(t *testing.T) {
	c := newResultCache(CacheConfig{})
	leader := mustLead(t, c, key("k"), "s1")
	_, follower, _ := c.lookup(key("k"), "s1")
	func() {
		defer func() { recover() }() //nolint:errcheck — the panic is the test
		defer c.flights.Abandon(leader, errAborted)
		panic("dispatch blew up")
	}()
	if got := follow(t, c, follower); !errors.Is(got.Err, ErrInternal) {
		t.Fatalf("a follower of a panicked leader got %v, want internal", got.Err)
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("a panicked dispatch was stored: %+v", st)
	}
	mustLead(t, c, key("k"), "s1")
}

func TestResultCacheFinishError(t *testing.T) {
	c := newResultCache(CacheConfig{})
	call := mustLead(t, c, key("k"), "s1")
	if _, follow, lead := c.lookup(key("k"), "s1"); follow != call || lead {
		t.Fatal("an identical lookup should follow the call in flight")
	}
	wantErr := fmt.Errorf("boom")
	c.finish(call, RunResult{}, wantErr)
	if got := follow(t, c, call); got.Err != wantErr {
		t.Fatalf("followers should share the leader's error, got %v", got.Err)
	}
	// A failed call stores nothing and does not poison the key.
	retry := mustLead(t, c, key("k"), "s1")
	c.finish(retry, testResult("ok"), nil)
	if res, ok := c.get(key("k")); !ok || string(res.Output) != "ok" {
		t.Fatalf("retry after failure broken: %s", res.Output)
	}
}

// TestResultCacheInvalidationUnregistersCalls: a call an invalidation of
// its servable (or a flush) unregistered stores nothing when it
// finishes, an arrival after the invalidation leads a call of its own,
// and another servable's invalidation leaves a call alone.
func TestResultCacheInvalidationUnregistersCalls(t *testing.T) {
	c := newResultCache(CacheConfig{})
	stale := mustLead(t, c, key("k"), "s1")
	c.invalidate("s1")
	fresh := mustLead(t, c, key("k"), "s1") // not stale's follower
	c.finish(stale, testResult("stale"), nil)
	if _, follow, _ := c.lookup(key("k"), "s1"); follow != fresh {
		t.Fatal("finishing the unregistered call must neither store nor unregister the fresh one")
	}
	c.finish(fresh, testResult("fresh"), nil)
	if res, ok := c.get(key("k")); !ok || string(res.Output) != "fresh" {
		t.Fatal("the registered call's result must be stored")
	}

	other := mustLead(t, c, key("k2"), "s2")
	c.invalidate("s1")
	c.finish(other, testResult("s2"), nil)
	if _, ok := c.get(key("k2")); !ok {
		t.Fatal("unrelated invalidation must not discard s2's result")
	}

	late := mustLead(t, c, key("k3"), "s2")
	c.flush()
	mustLead(t, c, key("k3"), "s2")
	c.finish(late, testResult("late"), nil)
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("a call from before the flush was stored after it: %+v", st)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	big := func(n int) RunResult { // result holding exactly n bytes
		return testResult(strings.Repeat("x", n))
	}
	c := newResultCache(CacheConfig{MaxEntries: 100, MaxBytes: 4096})
	// An entry is charged exactly the bytes it holds: payload (a run's
	// output or a batch's outputs) plus task ID, nothing measured by
	// encoding it.
	c.put(key("a"), "s1", big(1000))
	if st := c.stats(); st.Entries != 1 || st.Bytes != 1000 {
		t.Fatalf("one 1000-byte entry: %+v", st)
	}
	batch := RunResult{}
	batch.TaskID = "0123456789abcdef"
	batch.Outputs = json.RawMessage(`["x","y"]`)
	c.put(key("batch"), "s1", batch)
	if st := c.stats(); st.Bytes != 1000+16+9 {
		t.Fatalf("entry with a task ID and outputs: %+v", st)
	}
	c.put(key("a"), "s1", big(10)) // a key is stored once
	if res, _ := c.get(key("a")); len(res.Output) != 1000 {
		t.Fatalf("a second store replaced a: %d bytes", len(res.Output))
	}
	if st := c.stats(); st.Entries != 2 || st.Bytes != 1000+16+9 {
		t.Fatalf("after storing a twice: %+v", st)
	}
	c = newResultCache(CacheConfig{MaxEntries: 100, MaxBytes: 4096})
	// Four 1000-byte entries fit (each under the 1024-byte oversize
	// threshold); the fifth pushes the sum past 4096 and evicts LRU.
	for _, k := range []string{"a", "b", "c", "d"} {
		c.put(key(k), "s1", big(1000))
	}
	if st := c.stats(); st.Entries != 4 || st.Bytes != 4000 {
		t.Fatalf("setup wrong: %+v", st)
	}
	c.put(key("e"), "s1", big(1000))
	if _, ok := c.get(key("a")); ok {
		t.Fatal("a should have been evicted for the byte budget")
	}
	if st := c.stats(); st.Entries != 4 || st.Bytes != 4000 {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
	// Oversized results (> MaxBytes/4) are never cached.
	c.put(key("huge"), "s1", big(1025))
	if _, ok := c.get(key("huge")); ok {
		t.Fatal("oversized entry should not be cached")
	}
	if _, ok := c.get(key("e")); !ok {
		t.Fatal("refusing the oversized entry must not evict a cached one")
	}
}

// BenchmarkBatchKey is the cache key of the benchmark's batch: 100
// compact inputs of 64 six-decimal floats, as the door passes them on.
func BenchmarkBatchKey(b *testing.B) {
	inputs := make([]json.RawMessage, 100)
	for i := range inputs {
		vec := []byte{'['}
		for j := 0; j < 64; j++ {
			if j > 0 {
				vec = append(vec, ',')
			}
			vec = fmt.Appendf(vec, "0.%06d", (i*64+j)*7919%1000000)
		}
		inputs[i] = append(vec, ']')
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := batchKey("o/m", 1, inputs); err != nil {
			b.Fatal(err)
		}
	}
}
