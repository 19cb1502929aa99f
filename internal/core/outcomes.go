package core

import (
	"context"
	"sync"
	"time"
)

// Keyed outcomes. Three features of the service share one structure:
// the result cache collapses identical runs onto one execution and keeps
// its result (§V-B), an Idempotency-Key replays the response of the
// request that first sent it, and an async run's task ID answers status
// polls until its retention runs out (§IV-A). Each maps a key to an
// execution in flight — a done channel that identical requests wait on —
// and then to the outcome it left, kept until it expires or is evicted.
// outcomes is that table, under one mutex: the singleflight pattern
// (golang.org/x/sync/singleflight) with a memory, as Stripe-style
// idempotency keys keep one (Leach, "Implementing Stripe-like Idempotency
// Keys in Postgres", 2017).
//
// Kept outcomes sit on one list with the most recently finished — or hit
// — at the front. There is no per-key timer and no ticker: expiry is
// checked on every lookup, and every operation sweeps expired outcomes
// off the list's back, so a sweep costs the outcomes it removes and one
// look at the first live one. An outcome expires ttl after it finished.

// claim is what lead found under a key.
type claim uint8

const (
	// claimKept: a finished outcome the table keeps; its done is closed.
	claimKept claim = iota
	// claimFollow: an execution in flight; its outcome comes on done.
	claimFollow
	// claimLead: nothing, so a new entry was registered; the caller
	// executes and must finish it.
	claimLead
)

// outcome is one key's entry: an execution in flight until finish
// closes done, then the outcome it left, while the table keeps it.
type outcome[K comparable, V any] struct {
	key   K
	group string        // the entries forget(group) drops together
	done  chan struct{} // closed by finish, after val and err are set
	val   V             // in flight: what lead was given; readers hold the table's lock
	err   error

	size     int64     // bytes charged against the byte budget while kept
	finished time.Time // when it was finished; set only under a TTL
	// prev and next link a kept outcome into the table's list; both are
	// nil while it is in flight or after it left the list.
	prev, next *outcome[K, V]
}

// outcomes is a keyed table of executions and their outcomes. A zero
// bound is no bound.
type outcomes[K comparable, V any] struct {
	mu       sync.Mutex
	ttl      time.Duration // a kept outcome expires this long after it finished; <= 0: never
	max      int           // outcomes kept at most
	maxBytes int64         // bytes kept outcomes hold at most; one above maxBytes/4 is not kept
	entries  map[K]*outcome[K, V]
	groups   map[string]map[K]*outcome[K, V]
	// root closes the list of kept outcomes into a ring: root.next is
	// the front, root.prev the back.
	root  outcome[K, V]
	kept  int
	bytes int64

	evictions, expirations uint64

	now func() time.Time
}

func newOutcomes[K comparable, V any](ttl time.Duration, max int, maxBytes int64) *outcomes[K, V] {
	t := &outcomes[K, V]{
		ttl:      ttl,
		max:      max,
		maxBytes: maxBytes,
		entries:  make(map[K]*outcome[K, V]),
		groups:   make(map[string]map[K]*outcome[K, V]),
		now:      time.Now,
	}
	t.root.prev, t.root.next = &t.root, &t.root
	return t
}

// lead claims key in one critical section: a kept outcome that has not
// expired (claimKept, and moved to the front), an execution in flight to
// follow (claimFollow), or — when there is neither — a new entry in group,
// holding pending until it is finished, that the caller leads (claimLead).
func (t *outcomes[K, V]) lead(key K, group string, pending V) (*outcome[K, V], claim) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.liveLocked(key); e != nil {
		if e.next == nil {
			return e, claimFollow
		}
		t.unlist(e)
		t.pushFront(e)
		return e, claimKept
	}
	e := &outcome[K, V]{key: key, group: group, done: make(chan struct{}), val: pending}
	t.entries[key] = e
	if group != "" {
		g := t.groups[group]
		if g == nil {
			g = make(map[K]*outcome[K, V])
			t.groups[group] = g
		}
		g[key] = e
	}
	return e, claimLead
}

// follow waits under ctx for e to finish and returns the entry whose
// outcome the caller takes. When retry rejects an outcome — the caller's
// rule for one it must not share — follow claims e's key again: it
// follows a newer execution in turn, or returns a new entry the caller
// leads (led) and must finish.
func (t *outcomes[K, V]) follow(ctx context.Context, e *outcome[K, V], retry func(*outcome[K, V]) bool) (_ *outcome[K, V], led bool, _ error) {
	for {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if !retry(e) {
			return e, false, nil
		}
		var zero V
		next, c := t.lead(e.key, e.group, zero)
		if c == claimLead {
			return next, true, nil
		}
		e = next
	}
}

// finish records a led execution's outcome and wakes its followers. The
// outcome is kept if keep says so, it fits the byte budget and e is
// still registered under its key (nothing forgot it meanwhile); kept, it
// pushes the least recently used outcomes out past either bound.
// Otherwise e is unregistered, and the key's next lookup leads afresh.
func (t *outcomes[K, V]) finish(e *outcome[K, V], val V, err error, keep bool, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.val, e.err = val, err
	if t.entries[e.key] == e {
		if keep && (t.maxBytes <= 0 || size <= t.maxBytes/4) {
			e.finished = t.sweepLocked()
			for t.kept > 0 && (t.max > 0 && t.kept >= t.max || t.maxBytes > 0 && t.bytes+size > t.maxBytes) {
				t.dropLocked(t.root.prev)
				t.evictions++
			}
			e.size = size
			t.pushFront(e)
		} else {
			t.dropLocked(e)
		}
	}
	close(e.done)
}

// abandon finishes e as internal and does not keep it, unless its leader
// already finished it. A leader defers it, so an execution that unwinds
// (a panic the HTTP door recovers) neither wedges its key nor leaves a
// zero outcome under it.
func (t *outcomes[K, V]) abandon(e *outcome[K, V]) {
	select {
	case <-e.done:
	default:
		var zero V
		t.finish(e, zero, ErrInternal.WithDetail("execution aborted"), false, 0)
	}
}

// get returns key's value and done channel — pending or finished —
// without claiming anything; ok is false for a key the table does not
// hold or holds expired.
func (t *outcomes[K, V]) get(key K) (val V, done <-chan struct{}, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.liveLocked(key)
	if e == nil {
		return val, nil, false
	}
	return e.val, e.done, true
}

// forget drops every entry of group, kept or in flight, and returns how
// many kept outcomes it dropped. An execution it unregistered still
// reaches its followers, but is not kept, and the next lookup of its key
// leads afresh.
func (t *outcomes[K, V]) forget(group string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.groups[group] {
		if e.next != nil {
			n++
		}
		t.dropLocked(e)
	}
	return n
}

// forgetAll is forget over every entry.
func (t *outcomes[K, V]) forgetAll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.kept
	for _, e := range t.entries {
		t.dropLocked(e)
	}
	return n
}

// outcomeStats is a snapshot of a table: entries in flight and kept,
// the kept ones alone and their bytes, and how many kept outcomes left
// by eviction and by expiry.
type outcomeStats struct {
	entries, kept          int
	bytes                  int64
	evictions, expirations uint64
}

// stats sweeps what is due and snapshots the table.
func (t *outcomes[K, V]) stats() outcomeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	return outcomeStats{len(t.entries), t.kept, t.bytes, t.evictions, t.expirations}
}

// sweepLocked drops expired outcomes off the list's back and returns the
// time it judged them by (zero without a TTL).
func (t *outcomes[K, V]) sweepLocked() time.Time {
	if t.ttl <= 0 {
		return time.Time{}
	}
	now := t.now()
	for e := t.root.prev; e != &t.root && t.expired(e, now); e = t.root.prev {
		t.dropLocked(e)
		t.expirations++
	}
	return now
}

// liveLocked sweeps, then returns key's entry — in flight, or kept and
// not expired — or nil; an expired one it finds is deleted.
func (t *outcomes[K, V]) liveLocked(key K) *outcome[K, V] {
	now := t.sweepLocked()
	e := t.entries[key]
	if e != nil && e.next != nil && t.expired(e, now) {
		t.dropLocked(e)
		t.expirations++
		return nil
	}
	return e
}

func (t *outcomes[K, V]) expired(e *outcome[K, V], now time.Time) bool {
	return t.ttl > 0 && now.Sub(e.finished) > t.ttl
}

// dropLocked unregisters e, which is registered under its key, and
// takes it off the list if it is kept.
func (t *outcomes[K, V]) dropLocked(e *outcome[K, V]) {
	delete(t.entries, e.key)
	if e.group != "" {
		g := t.groups[e.group]
		delete(g, e.key)
		if len(g) == 0 {
			delete(t.groups, e.group)
		}
	}
	if e.next != nil {
		t.unlist(e)
	}
}

func (t *outcomes[K, V]) pushFront(e *outcome[K, V]) {
	e.prev, e.next = &t.root, t.root.next
	e.next.prev = e
	t.root.next = e
	t.kept++
	t.bytes += e.size
}

func (t *outcomes[K, V]) unlist(e *outcome[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	t.kept--
	t.bytes -= e.size
}
