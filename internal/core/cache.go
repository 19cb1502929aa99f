package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/outcome"
)

// Service-layer result memoization. The paper places its memoization
// cache at the Task Manager (§V-B2/§V-B5); with multiple TMs that means
// identical requests routed to different sites recompute from scratch.
// This cache sits one layer up, at the Management Service, in front of
// routing: a hit answers without touching the queue or any TM at all,
// and N concurrent identical requests collapse (singleflight) into one
// dispatched task: the cache registers each miss in flight under its
// key, in the one outcome table (internal/outcome) that holds its results.
// The TM cache remains as the second tier for requests that do reach a
// site.
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

// flight is one key's entry in the result cache: a miss in flight, led
// by the request that registered it and followed by every identical
// request that arrives meanwhile, then the result it stored.
type flight = outcome.Entry[cacheKey, RunResult]

// resultCache is a bounded LRU with TTL over RunResults, and the
// registry of the misses in flight: one outcome table holds both, each
// entry in its servable's group. An invalidation or a flush forgets the
// misses in flight with the results, so a later arrival leads a fresh
// call and the old one's result is not stored.
type resultCache struct {
	flights *outcome.Table[cacheKey, RunResult]

	hits, misses, invalidations, collapsed metrics.Counter
}

func newResultCache(cfg CacheConfig) *resultCache {
	cfg = cfg.withDefaults()
	return &resultCache{flights: outcome.New[cacheKey, RunResult](cfg.TTL, cfg.MaxEntries, cfg.MaxBytes)}
}

// bufPool recycles the buffers run responses are assembled in; a rare
// giant one is dropped rather than pinned in the pool.
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
// member order nor the spelling of a string splits entries. The input
// is compact, as all run and runBatch take (compacted): only one that
// Marshal would spell differently is re-encoded here.
func resultKey(servableID string, version int, input json.RawMessage) (cacheKey, error) {
	return hashKey(servableID, version, false, input)
}

// batchKey is resultKey for a whole batch: the inputs hash as one JSON
// array, so a batch is one cache unit.
func batchKey(servableID string, version int, inputs []json.RawMessage) (cacheKey, error) {
	return hashKey(servableID, version, true, inputs...)
}

// keyHash is a pooled sha256 state with the buffer the key's small parts
// gather in; a payload whose bytes are already canonical goes to the
// hash as it is, uncopied.
type keyHash struct {
	h   hash.Hash
	buf bytes.Buffer
	sum cacheKey // Sum's destination: a local one would escape through h
}

var keyHashes = sync.Pool{New: func() any { return &keyHash{h: sha256.New()} }}

func hashKey(servableID string, version int, batch bool, inputs ...json.RawMessage) (cacheKey, error) {
	kind := "run"
	if batch {
		kind = "batch"
	}
	k := keyHashes.Get().(*keyHash)
	defer func() {
		if k.buf.Cap() <= 1<<20 {
			keyHashes.Put(k)
		}
	}()
	k.h.Reset()
	buf := &k.buf
	buf.Reset()
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
		switch {
		case len(in) == 0:
			buf.WriteString("null")
		case respelled(in):
			if err := appendCanonical(buf, in); err != nil {
				return cacheKey{}, err
			}
		default:
			k.h.Write(buf.Bytes())
			buf.Reset()
			k.h.Write(in)
		}
	}
	if batch {
		buf.WriteByte(']')
	}
	k.h.Write(buf.Bytes())
	k.h.Sum(k.sum[:0])
	return k.sum, nil
}

// appendCanonical appends the canonical JSON of raw, a payload that
// holds something json.Marshal would spell differently (respelled): it
// is decoded — numbers kept as text — and marshaled again, for the key
// alone.
func appendCanonical(buf *bytes.Buffer, raw json.RawMessage) error {
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

// Bytes in a word: ones has 0x01 in each, highs 0x80.
const ones, highs = 0x0101010101010101, 0x8080808080808080

// zeros has the high bit set in each byte of x that is zero (and in no
// byte unless one is: a spurious mark sits only above a true one).
func zeros(x uint64) uint64 { return (x - ones) &^ x }

// respelled reports whether json.Marshal of raw's decoded value could
// differ from raw's compact bytes: raw holds an object (member order,
// duplicate names), a string escape, a character Marshal escapes (<, >,
// &) or anything outside ASCII (U+2028/9, invalid UTF-8). A word of
// eight bytes with none of those is passed over whole.
func respelled(raw []byte) bool {
	i := 0
	for ; i+8 <= len(raw); i += 8 {
		x := binary.LittleEndian.Uint64(raw[i:])
		if (x|zeros(x^ones*'{')|zeros(x^ones*'\\')|zeros(x^ones*'<')|zeros(x^ones*'>')|zeros(x^ones*'&'))&highs != 0 {
			return true
		}
	}
	for _, c := range raw[i:] {
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
	for i := 0; i < len(raw); i++ {
		for ; i+8 <= len(raw); i += 8 {
			x := binary.LittleEndian.Uint64(raw[i:])
			if ((x-ones*'!')&^x|zeros(x^ones*'"'))&highs != 0 {
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

// compacted is a payload as run and runBatch take it: compact, so the
// key and the task line take its bytes as they are. The door and a
// pipeline's step boundary call it (encodeInput's json.Marshal compacts
// by itself) on valid JSON: a decoded body, or a checked reply output.
func compacted(raw json.RawMessage) json.RawMessage {
	if !spaced(raw) {
		return raw
	}
	var buf bytes.Buffer
	json.Compact(&buf, raw) //nolint:errcheck — raw is valid, as above
	return buf.Bytes()
}

// lookup answers a request for key in one critical section, counting a
// hit or a miss: a hit returns the stored result and no call; a miss
// returns the call registered for key, to follow, or registers a new one
// that the caller leads (lead) and must finish.
func (c *resultCache) lookup(key cacheKey, servableID string) (res RunResult, call *flight, lead bool) {
	call, cl := c.flights.Lead(key, servableID, RunResult{})
	if cl == outcome.ClaimKept {
		c.hits.Inc()
		return call.Val, nil, false
	}
	c.misses.Inc()
	return RunResult{}, call, cl == outcome.ClaimLead
}

// finish ends a led call: a successful result is stored unless an
// invalidation or flush forgot the call since its lookup, so a result
// computed before an invalidation is never stored after it. The charge
// is the bytes the entry keeps alive (only successful non-pipeline
// results are cached: Error and Steps are empty).
func (c *resultCache) finish(call *flight, res RunResult, err error) {
	c.flights.Finish(call, res, err, err == nil, int64(len(res.TaskID)+len(res.Output)+len(res.Outputs)))
}

// invalidate drops every entry for one servable (all versions, all
// inputs) and forgets its calls in flight — the
// Publish/UpdateMetadata/Scale hook.
func (c *resultCache) invalidate(servableID string) int {
	n := c.flights.Forget(servableID)
	c.invalidations.Add(uint64(n))
	return n
}

// flush empties the cache and forgets every call in flight, keeping
// counters.
func (c *resultCache) flush() {
	c.invalidations.Add(uint64(c.flights.ForgetAll()))
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	st := c.flights.Stats()
	return CacheStats{
		Entries:       st.Kept,
		Bytes:         st.Bytes,
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     st.Evictions,
		Expirations:   st.Expirations,
		Invalidations: c.invalidations.Value(),
		Collapsed:     c.collapsed.Value(),
	}
}
