package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(CacheConfig{MaxEntries: 2})
	c.put(key("a"), "s1", 0, testResult("a"))
	c.put(key("b"), "s1", 0, testResult("b"))
	if _, ok := c.get(key("a")); !ok { // touch a -> b becomes LRU
		t.Fatal("a should be cached")
	}
	c.put(key("c"), "s1", 0, testResult("c"))
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
	c.now = func() time.Time { return now }
	c.put(key("k"), "s1", 0, testResult("v"))
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
	c.put(key("k1"), "s1", 0, testResult("1"))
	c.put(key("k2"), "s1", 0, testResult("2"))
	c.put(key("k3"), "s2", 0, testResult("3"))
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
	b4, _ := batchKey("o/m", 1, []json.RawMessage{raw(" 1"), raw("2 ")})
	if b1 == b2 || b1 == b3 || b1 != b4 {
		t.Fatal("batch keys must follow the inputs' JSON array")
	}
}

// FuzzResultKey checks the canonical-key contract on arbitrary
// documents: the key computed from raw bytes (written as they are when
// compact, compacted when spaced, re-encoded only when they hold
// something Marshal would spell differently) equals the key of the
// decode-and-Marshal form the cache was keyed on before payloads passed
// through as bytes — for the document as sent, compact or spaced out.
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
		for _, form := range [][]byte{doc, compact.Bytes(), indented.Bytes(), compacted(indented.Bytes())} {
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

func TestFlightGroupCollapses(t *testing.T) {
	var g flightGroup
	var calls int
	var mu sync.Mutex
	started := make(chan struct{})
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]bool, waiters) // shared flag per caller
	var leaderOnce sync.Once
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err, shared := g.do(context.Background(), key("k"), func() (RunResult, error) {
				leaderOnce.Do(func() { close(started) })
				<-release
				mu.Lock()
				calls++
				mu.Unlock()
				return testResult("once"), nil
			})
			if err != nil || string(res.Output) != "once" {
				t.Errorf("caller %d: res=%s err=%v", i, res.Output, err)
			}
			results[i] = shared
		}(i)
	}
	<-started
	time.Sleep(20 * time.Millisecond) // let followers reach the wait
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn should run once, ran %d times", calls)
	}
	sharedCount := 0
	for _, s := range results {
		if s {
			sharedCount++
		}
	}
	// Followers that arrived while the leader was in flight all share;
	// stragglers that arrived after completion re-run (calls would then
	// exceed 1, already checked above).
	if sharedCount != waiters-1 {
		t.Fatalf("want %d shared callers, got %d", waiters-1, sharedCount)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup
	wantErr := fmt.Errorf("boom")
	_, err, _ := g.do(context.Background(), key("k"), func() (RunResult, error) { return RunResult{}, wantErr })
	if err != wantErr {
		t.Fatalf("want error propagated, got %v", err)
	}
	// A failed call must not poison the key for later calls.
	res, err, _ := g.do(context.Background(), key("k"), func() (RunResult, error) { return testResult("ok"), nil })
	if err != nil || string(res.Output) != "ok" {
		t.Fatalf("retry after failure broken: %s %v", res.Output, err)
	}
}

func TestFlightGroupFollowerTimeout(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go g.do(context.Background(), key("k"), func() (RunResult, error) { //nolint:errcheck
		close(leaderIn)
		<-release
		return testResult("slow"), nil
	})
	<-leaderIn
	// A follower with a tight wait must give up on its own deadline,
	// not the leader's.
	start := time.Now()
	followerCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err, shared := g.do(followerCtx, key("k"), func() (RunResult, error) {
		t.Error("follower must not execute fn")
		return RunResult{}, nil
	})
	if !shared || err == nil {
		t.Fatalf("follower should time out as shared: shared=%v err=%v", shared, err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("follower waited %v, wanted ~20ms", elapsed)
	}
	close(release)
}

func TestResultCacheStaleGenerationPut(t *testing.T) {
	c := newResultCache(CacheConfig{})
	gen := c.generation("s1")
	c.invalidate("s1") // bumps s1's generation
	// A result computed before the invalidation must not be stored
	// after it.
	c.put(key("k"), "s1", gen, testResult("stale"))
	if _, ok := c.get(key("k")); ok {
		t.Fatal("stale-generation put must be discarded")
	}
	c.put(key("k"), "s1", c.generation("s1"), testResult("fresh"))
	if res, ok := c.get(key("k")); !ok || string(res.Output) != "fresh" {
		t.Fatal("current-generation put must store")
	}
	// Another servable's invalidation must not discard s2's put.
	gen2 := c.generation("s2")
	c.invalidate("s1")
	c.put(key("k2"), "s2", gen2, testResult("s2"))
	if _, ok := c.get(key("k2")); !ok {
		t.Fatal("unrelated invalidation must not discard s2's result")
	}
	// A flush invalidates every in-flight compute.
	gen2 = c.generation("s2")
	c.flush()
	c.put(key("k3"), "s2", gen2, testResult("late"))
	if _, ok := c.get(key("k3")); ok {
		t.Fatal("pre-flush compute must not be stored post-flush")
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
	c.put(key("a"), "s1", 0, big(1000))
	if st := c.stats(); st.Entries != 1 || st.Bytes != 1000 {
		t.Fatalf("one 1000-byte entry: %+v", st)
	}
	batch := RunResult{}
	batch.TaskID = "0123456789abcdef"
	batch.Outputs = json.RawMessage(`["x","y"]`)
	c.put(key("batch"), "s1", 0, batch)
	if st := c.stats(); st.Bytes != 1000+16+9 {
		t.Fatalf("entry with a task ID and outputs: %+v", st)
	}
	c.put(key("a"), "s1", 0, big(10)) // a refresh is re-charged
	if st := c.stats(); st.Entries != 2 || st.Bytes != 10+16+9 {
		t.Fatalf("after refreshing a: %+v", st)
	}
	c = newResultCache(CacheConfig{MaxEntries: 100, MaxBytes: 4096})
	// Four 1000-byte entries fit (each under the 1024-byte oversize
	// threshold); the fifth pushes the sum past 4096 and evicts LRU.
	for _, k := range []string{"a", "b", "c", "d"} {
		c.put(key(k), "s1", 0, big(1000))
	}
	if st := c.stats(); st.Entries != 4 || st.Bytes != 4000 {
		t.Fatalf("setup wrong: %+v", st)
	}
	c.put(key("e"), "s1", 0, big(1000))
	if _, ok := c.get(key("a")); ok {
		t.Fatal("a should have been evicted for the byte budget")
	}
	if st := c.stats(); st.Entries != 4 || st.Bytes != 4000 {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
	// Oversized results (> MaxBytes/4) are never cached.
	c.put(key("huge"), "s1", 0, big(1025))
	if _, ok := c.get(key("huge")); ok {
		t.Fatal("oversized entry should not be cached")
	}
	if _, ok := c.get(key("e")); !ok {
		t.Fatal("refusing the oversized entry must not evict a cached one")
	}
}
