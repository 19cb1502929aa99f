package core

import (
	"sync"
	"time"
)

// Idempotency keys for the v2 mutating routes (run, publish). A client
// that retries a POST after a network failure cannot know whether the
// first attempt executed; sending the same Idempotency-Key makes the
// retry safe: the first execution's response is stored and replayed,
// and a duplicate arriving while the original is still executing waits
// for that execution instead of starting a second one. Keys are scoped
// per caller identity and route, so two users (or two routes) reusing
// the same key never collide.

// IdempotencyKeyHeader is the request header carrying the client's
// chosen key; IdempotencyReplayedHeader marks a replayed response.
const (
	IdempotencyKeyHeader      = "Idempotency-Key"
	IdempotencyReplayedHeader = "Idempotency-Replayed"
)

// idemEntry is one keyed execution: done closes when the first
// execution finishes, after which status/body/err hold its outcome.
type idemEntry struct {
	done    chan struct{}
	status  int
	body    []byte // marshaled envelope data (nil when err != nil)
	err     *Error
	created time.Time
}

// finish records the outcome and releases waiting duplicates.
func (e *idemEntry) finish(status int, body []byte, err *Error) {
	e.status = status
	e.body = body
	e.err = err
	close(e.done)
}

// idemTTL bounds how long a completed keyed response is replayable.
const idemTTL = 10 * time.Minute

// idemStore holds keyed executions with TTL expiry and a size cap.
type idemStore struct {
	mu      sync.Mutex
	max     int
	entries map[string]*idemEntry
	now     func() time.Time
}

func newIdemStore() *idemStore {
	return &idemStore{
		max:     4096,
		entries: make(map[string]*idemEntry),
		now:     time.Now,
	}
}

// begin claims key: isNew reports this caller is the first (and must
// finish() the returned entry); otherwise the entry belongs to an
// earlier request and the caller should wait on done and replay.
func (st *idemStore) begin(key string) (e *idemEntry, isNew bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	if e, ok := st.entries[key]; ok {
		expired := now.Sub(e.created) > idemTTL
		// Only completed entries expire: an in-flight execution must
		// keep absorbing duplicates however long it runs.
		select {
		case <-e.done:
			if !expired {
				return e, false
			}
			delete(st.entries, key)
		default:
			return e, false
		}
	}
	st.sweepLocked(now)
	e = &idemEntry{done: make(chan struct{}), created: now}
	st.entries[key] = e
	return e, true
}

// forget removes key — but only while it still maps to e, so a racing
// re-execution that already claimed the key under a fresh entry is
// never evicted by a stale forget. Waiters already holding e still
// read its recorded outcome. Used for transient failures (5xx,
// canceled) that must not be replayed — replaying them would defeat
// the retry contract the key exists for — and for aborted executions
// (panic) that never finished.
func (st *idemStore) forget(key string, e *idemEntry) {
	st.mu.Lock()
	if st.entries[key] == e {
		delete(st.entries, key)
	}
	st.mu.Unlock()
}

// sweepLocked drops expired completed entries; at the size cap it drops
// the oldest completed entries to make room. Caller holds st.mu.
func (st *idemStore) sweepLocked(now time.Time) {
	for key, e := range st.entries {
		select {
		case <-e.done:
			if now.Sub(e.created) > idemTTL {
				delete(st.entries, key)
			}
		default:
		}
	}
	for len(st.entries) >= st.max {
		var oldestKey string
		var oldest time.Time
		for key, e := range st.entries {
			select {
			case <-e.done:
				if oldestKey == "" || e.created.Before(oldest) {
					oldestKey, oldest = key, e.created
				}
			default:
			}
		}
		if oldestKey == "" {
			return // everything in flight; nothing evictable
		}
		delete(st.entries, oldestKey)
	}
}
