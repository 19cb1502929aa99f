package core

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Service-layer result memoization. The paper places its memoization
// cache at the Task Manager (§V-B2/§V-B5); with multiple TMs that means
// identical requests routed to different sites recompute from scratch.
// This cache sits one layer up, at the Management Service, in front of
// routing: a hit answers without touching the queue or any TM at all,
// and N concurrent identical requests collapse (singleflight) into one
// dispatched task: the cache registers each miss in flight under its
// key, under the lock its entries use. The TM cache remains as the
// second tier for requests that do reach a site.
//
// Keys are (servableID, version, canonical-JSON(input)): the published
// version is part of the key, so re-publishing a servable naturally
// misses; explicit invalidation on Publish/UpdateMetadata/Scale also
// drops stale entries eagerly. Lookups happen strictly after the ACL
// check in Service.Get, so a cached result is never served to a caller
// who could not see the servable.

// CacheConfig configures the service-layer result cache.
type CacheConfig struct {
	// Disabled turns the service-layer cache off entirely (per-request
	// opt-out is RunOptions.NoCache).
	Disabled bool
	// MaxEntries bounds the cache; the least recently used entry is
	// evicted at capacity (default 4096).
	MaxEntries int
	// MaxBytes bounds the bytes cached results hold, payload and task
	// ID, exactly (default 256 MiB). Entries above MaxBytes/4 are never
	// cached, so one giant batch result cannot dominate the budget.
	MaxBytes int64
	// TTL expires entries after this long (default 5m; <0 disables
	// expiry).
	TTL time.Duration
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 4096
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	if c.TTL == 0 {
		c.TTL = 5 * time.Minute
	}
	return c
}

// CacheStats is a point-in-time snapshot of the result cache counters,
// exposed at GET /api/v2/cache/stats.
type CacheStats struct {
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Expirations   uint64 `json:"expirations"`
	Invalidations uint64 `json:"invalidations"`
	// Collapsed counts requests that waited on an identical in-flight
	// request instead of dispatching their own task (singleflight).
	Collapsed uint64 `json:"collapsed"`
}

// cacheKey is the sha256 of a request's servable, version, kind and
// canonical input (hashKey); the zero value means the cache does not apply.
type cacheKey [sha256.Size]byte

type cacheEntry struct {
	key      cacheKey
	servable string
	res      RunResult // what a response carries: the payload is the reply's bytes
	size     int64     // bytes res holds, charged against maxBytes
	expires  time.Time // zero = never
}

// resultCache is a bounded LRU with TTL over RunResults, and the
// registry of the misses in flight; one lock guards both.
type resultCache struct {
	mu         sync.Mutex
	max        int
	maxBytes   int64
	bytes      int64
	ttl        time.Duration
	lru        *list.List // front = most recently used, of *cacheEntry
	entries    map[cacheKey]*list.Element
	byServable map[string]map[cacheKey]*list.Element
	// calls are the misses in flight, at most one per key (singleflight).
	// invalidate and flush unregister them with the entries they drop, so
	// a later arrival leads a fresh call and the old one's result is not
	// stored.
	calls map[cacheKey]*flightCall

	hits, misses, evictions, expirations, invalidations, collapsed metrics.Counter

	now func() time.Time
}

func newResultCache(cfg CacheConfig) *resultCache {
	cfg = cfg.withDefaults()
	return &resultCache{
		max:        cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		ttl:        cfg.TTL,
		lru:        list.New(),
		entries:    make(map[cacheKey]*list.Element),
		byServable: make(map[string]map[cacheKey]*list.Element),
		calls:      make(map[cacheKey]*flightCall),
		now:        time.Now,
	}
}

// bufPool recycles the buffers cache keys and run responses are assembled
// in; a rare giant one is dropped rather than pinned in the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 {
		bufPool.Put(buf)
	}
}

// resultKey builds the cache key of a single run: sha256 over servable
// ID, published version, task kind and the input's canonical JSON — the
// text json.Marshal emits for the decoded input, so neither whitespace,
// member order nor the spelling of a string splits entries.
func resultKey(servableID string, version int, input json.RawMessage) (cacheKey, error) {
	return hashKey(servableID, version, false, input)
}

// batchKey is resultKey for a whole batch: the inputs hash as one JSON
// array, so a batch is one cache unit.
func batchKey(servableID string, version int, inputs []json.RawMessage) (cacheKey, error) {
	return hashKey(servableID, version, true, inputs...)
}

func hashKey(servableID string, version int, batch bool, inputs ...json.RawMessage) (cacheKey, error) {
	kind := "run"
	if batch {
		kind = "batch"
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(servableID)
	buf.WriteByte(0)
	buf.Write([]byte{byte(version), byte(version >> 8), byte(version >> 16), byte(version >> 24)})
	buf.WriteString(kind)
	buf.WriteByte(0)
	if batch {
		buf.WriteByte('[')
	}
	for i, in := range inputs {
		if i > 0 {
			buf.WriteByte(',')
		}
		if err := appendCanonical(buf, in); err != nil {
			return cacheKey{}, err
		}
	}
	if batch {
		buf.WriteByte(']')
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// appendCanonical appends raw's canonical JSON to buf. The compact bytes
// are enough unless they hold something json.Marshal would spell
// differently: an object (member order, duplicate names), a string
// escape, a character Marshal escapes (<, >, &) or anything outside
// ASCII (U+2028/9, invalid UTF-8). Only then is the input decoded —
// numbers kept as text — and marshaled again, for the key alone.
func appendCanonical(buf *bytes.Buffer, raw json.RawMessage) error {
	if len(raw) == 0 {
		buf.WriteString("null")
		return nil
	}
	if !respelled(raw) {
		if !spaced(raw) {
			buf.Write(raw)
			return nil
		}
		return json.Compact(buf, raw)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf.Write(data)
	return nil
}

// respelled reports whether json.Marshal of raw's decoded value could
// differ from raw's compact bytes.
func respelled(raw []byte) bool {
	for _, c := range raw {
		if c >= 0x80 || c == '{' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return true
		}
	}
	return false
}

// spaced reports whether raw holds whitespace outside its strings (in a
// valid document, any byte below '!' there). A word of eight bytes with
// neither such a byte nor a quote is passed over whole.
func spaced(raw []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for i := 0; i < len(raw); i++ {
		for ; i+8 <= len(raw); i += 8 {
			x := binary.LittleEndian.Uint64(raw[i:])
			if q := x ^ ones*'"'; ((x-ones*'!')&^x|(q-ones)&^q)&highs != 0 {
				break
			}
		}
		switch {
		case i == len(raw):
			return false
		case raw[i] <= ' ':
			return true
		case raw[i] == '"':
			for i++; i < len(raw) && raw[i] != '"'; i++ {
				if raw[i] == '\\' {
					i++ // the escaped byte cannot end the string
				}
			}
		}
	}
	return false
}

// compacted is a payload as the door passes it on: compact, by at most
// one json.Compact, so the key and the task line take its bytes as is.
func compacted(raw json.RawMessage) json.RawMessage {
	if !spaced(raw) {
		return raw
	}
	var buf bytes.Buffer
	json.Compact(&buf, raw) //nolint:errcheck — the door's decode validated raw
	return buf.Bytes()
}

// flightCall is one miss in flight. The request that registered it (the
// leader) dispatches; every identical request that arrives while it is
// registered follows it and shares its result.
type flightCall struct {
	key      cacheKey
	servable string
	done     chan struct{} // closed by finish, after res and err are set
	res      RunResult
	err      error
}

// lookup answers a request for key in one critical section, counting a
// hit or a miss: a hit returns the stored result and no call; a miss
// returns the call registered for key, to follow, or registers a new one
// that the caller leads (lead) and must finish.
func (c *resultCache) lookup(key cacheKey, servableID string) (res RunResult, call *flightCall, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[key]; ok {
		e := elem.Value.(*cacheEntry)
		if e.expires.IsZero() || !c.now().After(e.expires) {
			c.lru.MoveToFront(elem)
			c.hits.Inc()
			return e.res, nil, false
		}
		c.unlinkLocked(elem)
		c.expirations.Inc()
	}
	c.misses.Inc()
	call, lead = c.joinLocked(key, servableID)
	return RunResult{}, call, lead
}

// join is the second look of a follower whose leader was canceled: it
// follows the call now registered for key, or leads a new one, and
// counts nothing (the request's miss is already counted).
func (c *resultCache) join(key cacheKey, servableID string) (*flightCall, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joinLocked(key, servableID)
}

func (c *resultCache) joinLocked(key cacheKey, servableID string) (*flightCall, bool) {
	if call, ok := c.calls[key]; ok {
		return call, false
	}
	call := &flightCall{key: key, servable: servableID, done: make(chan struct{})}
	c.calls[key] = call
	return call, true
}

// finish ends a led call in one critical section: if the call is still
// registered — no invalidation or flush since its lookup — it is
// unregistered and a successful result stored; then its followers are
// woken. A result computed before an invalidation is never stored after
// it, and an arrival after the invalidation never joins it.
func (c *resultCache) finish(call *flightCall, res RunResult, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	call.res, call.err = res, err
	if c.calls[call.key] == call {
		delete(c.calls, call.key)
		if err == nil {
			c.putLocked(call.key, call.servable, res)
		}
	}
	close(call.done)
}

// putLocked stores a result, evicting LRU entries past the entry or byte
// budget. Oversized results (more than a quarter of the byte budget) are
// discarded, and so is a second result for a key already stored: a
// follower whose leader was canceled can lead again after another call
// stored the key. Caller holds c.mu.
func (c *resultCache) putLocked(key cacheKey, servableID string, res RunResult) {
	// The charge is the bytes the entry keeps alive. (Only successful
	// non-pipeline results are cached: Error and Steps are empty.)
	size := int64(len(res.TaskID) + len(res.Output) + len(res.Outputs))
	if _, ok := c.entries[key]; ok || size > c.maxBytes/4 {
		return
	}
	c.evictOverBudgetLocked(size)
	e := &cacheEntry{key: key, servable: servableID, res: res, size: size, expires: c.expiry()}
	elem := c.lru.PushFront(e)
	c.entries[key] = elem
	c.bytes += size
	keys := c.byServable[servableID]
	if keys == nil {
		keys = make(map[cacheKey]*list.Element)
		c.byServable[servableID] = keys
	}
	keys[key] = elem
}

// evictOverBudgetLocked drops LRU entries until one more entry of size
// bytes fits both budgets. Caller holds c.mu.
func (c *resultCache) evictOverBudgetLocked(size int64) {
	for c.lru.Len() > 0 && (c.lru.Len() >= c.max || c.bytes+size > c.maxBytes) {
		c.unlinkLocked(c.lru.Back())
		c.evictions.Inc()
	}
}

func (c *resultCache) expiry() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	return c.now().Add(c.ttl)
}

// unlinkLocked unlinks an element from all indexes. Caller holds c.mu.
func (c *resultCache) unlinkLocked(elem *list.Element) {
	e := elem.Value.(*cacheEntry)
	c.lru.Remove(elem)
	c.bytes -= e.size
	delete(c.entries, e.key)
	if keys := c.byServable[e.servable]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byServable, e.servable)
		}
	}
}

// invalidate drops every entry for one servable (all versions, all
// inputs) and unregisters its calls in flight — the
// Publish/UpdateMetadata/Scale hook.
func (c *resultCache) invalidate(servableID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byServable[servableID]
	n := len(keys)
	for _, elem := range keys {
		e := elem.Value.(*cacheEntry)
		c.lru.Remove(elem)
		c.bytes -= e.size
		delete(c.entries, e.key)
	}
	delete(c.byServable, servableID)
	for key, call := range c.calls {
		if call.servable == servableID {
			delete(c.calls, key)
		}
	}
	c.invalidations.Add(uint64(n))
	return n
}

// flush empties the cache and unregisters every call in flight,
// keeping counters.
func (c *resultCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Len()
	c.lru.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.byServable = make(map[string]map[cacheKey]*list.Element)
	clear(c.calls)
	c.bytes = 0
	c.invalidations.Add(uint64(n))
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	bytes := c.bytes
	c.mu.Unlock()
	return CacheStats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		Expirations:   c.expirations.Value(),
		Invalidations: c.invalidations.Value(),
		Collapsed:     c.collapsed.Value(),
	}
}
