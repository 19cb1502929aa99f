// Package outcome is a keyed table of executions and the outcomes they
// leave. Four features of DLHub share it, at both memoization tiers: at
// the Management Service the result cache collapses identical runs onto
// one execution and keeps its result (§V-B), an Idempotency-Key replays
// the response of the request that first sent it, and an async run's
// task ID answers status polls until its retention runs out (§IV-A); at
// a Task Manager the memo answers repeats that still reach the site
// (§V-B5). Each maps a key to an execution in flight — a done channel
// that identical requests wait on — and then to the outcome it left,
// kept until it expires or is evicted. Table is that map under one
// mutex: the singleflight pattern (golang.org/x/sync/singleflight) with
// a memory, as Stripe-style idempotency keys keep one (Leach,
// "Implementing Stripe-like Idempotency Keys in Postgres", 2017).
//
// Kept outcomes sit on one list with the most recently finished — or hit
// — at the front. There is no per-key timer and no ticker: expiry is
// checked on every lookup, and every operation sweeps expired outcomes
// off the list's back, so a sweep costs the outcomes it removes and one
// look at the first live one. An outcome expires ttl after it finished.
package outcome

import (
	"context"
	"sync"
	"time"
)

// Claim is what Lead found under a key.
type Claim uint8

const (
	// ClaimKept: a finished outcome the table keeps.
	ClaimKept Claim = iota
	// ClaimFollow: an execution in flight; Follow waits for its outcome.
	ClaimFollow
	// ClaimLead: nothing, so a new entry was registered; the caller
	// executes and must Finish it.
	ClaimLead
)

// Entry is one key's entry: an execution in flight until Finish closes
// done, then the outcome it left, while the table keeps it. Val and Err
// are read once the entry is finished — after a ClaimKept, or from the
// entry Follow returns — or, for Val in flight, under Get.
type Entry[K comparable, V any] struct {
	key   K
	group string        // the entries Forget(group) drops together
	done  chan struct{} // closed by Finish, after Val and Err are set
	Val   V             // in flight: what Lead was given
	Err   error

	size     int64     // bytes charged against the byte budget while kept
	finished time.Time // when it was finished; set only under a TTL
	// prev and next link a kept outcome into the table's list; both are
	// nil while it is in flight or after it left the list.
	prev, next *Entry[K, V]
}

// Table is a keyed table of executions and their outcomes. A zero bound
// is no bound.
type Table[K comparable, V any] struct {
	mu       sync.Mutex
	ttl      time.Duration // a kept outcome expires this long after it finished; <= 0: never
	max      int           // outcomes kept at most
	maxBytes int64         // bytes kept outcomes hold at most; one above maxBytes/4 is not kept
	entries  map[K]*Entry[K, V]
	groups   map[string]map[K]*Entry[K, V]
	// root closes the list of kept outcomes into a ring: root.next is
	// the front, root.prev the back.
	root  Entry[K, V]
	kept  int
	bytes int64

	evictions, expirations uint64

	// Now is the table's clock (time.Now); set it before the first call.
	Now func() time.Time
}

// New returns an empty table whose outcomes expire ttl after they
// finished, of which at most max, holding at most maxBytes, are kept.
func New[K comparable, V any](ttl time.Duration, max int, maxBytes int64) *Table[K, V] {
	t := &Table[K, V]{
		ttl:      ttl,
		max:      max,
		maxBytes: maxBytes,
		entries:  make(map[K]*Entry[K, V]),
		groups:   make(map[string]map[K]*Entry[K, V]),
		Now:      time.Now,
	}
	t.root.prev, t.root.next = &t.root, &t.root
	return t
}

// Lead claims key in one critical section: a kept outcome that has not
// expired (ClaimKept, and moved to the front), an execution in flight to
// follow (ClaimFollow), or — when there is neither — a new entry in group,
// holding pending until it is finished, that the caller leads (ClaimLead).
func (t *Table[K, V]) Lead(key K, group string, pending V) (*Entry[K, V], Claim) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.liveLocked(key); e != nil {
		if e.next == nil {
			return e, ClaimFollow
		}
		t.unlist(e)
		t.pushFront(e)
		return e, ClaimKept
	}
	e := &Entry[K, V]{key: key, group: group, done: make(chan struct{}), Val: pending}
	t.entries[key] = e
	if group != "" {
		g := t.groups[group]
		if g == nil {
			g = make(map[K]*Entry[K, V])
			t.groups[group] = g
		}
		g[key] = e
	}
	return e, ClaimLead
}

// Follow waits under ctx for e to finish and returns the entry whose
// outcome the caller takes. When retry rejects an outcome — the caller's
// rule for one it must not share — Follow claims e's key again: it
// follows a newer execution in turn, or returns a new entry the caller
// leads (led) and must finish.
func (t *Table[K, V]) Follow(ctx context.Context, e *Entry[K, V], retry func(*Entry[K, V]) bool) (_ *Entry[K, V], led bool, _ error) {
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
		next, c := t.Lead(e.key, e.group, zero)
		if c == ClaimLead {
			return next, true, nil
		}
		e = next
	}
}

// Finish records a led execution's outcome and wakes its followers. The
// outcome is kept if keep says so, it fits the byte budget and e is
// still registered under its key (nothing forgot it meanwhile); kept, it
// pushes the least recently used outcomes out past either bound.
// Otherwise e is unregistered, and the key's next lookup leads afresh.
func (t *Table[K, V]) Finish(e *Entry[K, V], val V, err error, keep bool, size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.Val, e.Err = val, err
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

// Abandon finishes e with the zero value and err and does not keep it,
// unless its leader already finished it. A leader defers it, so an
// execution that unwinds (a panic recovered further up) neither wedges
// its key nor leaves a zero outcome under it.
func (t *Table[K, V]) Abandon(e *Entry[K, V], err error) {
	select {
	case <-e.done:
	default:
		var zero V
		t.Finish(e, zero, err, false, 0)
	}
}

// Get returns key's value and done channel — pending or finished —
// without claiming anything; ok is false for a key the table does not
// hold or holds expired.
func (t *Table[K, V]) Get(key K) (val V, done <-chan struct{}, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.liveLocked(key)
	if e == nil {
		return val, nil, false
	}
	return e.Val, e.done, true
}

// Forget drops every entry of group, kept or in flight, and returns how
// many kept outcomes it dropped. An execution it unregistered still
// reaches its followers, but is not kept, and the next lookup of its key
// leads afresh.
func (t *Table[K, V]) Forget(group string) int {
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

// ForgetAll is Forget over every entry.
func (t *Table[K, V]) ForgetAll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.kept
	for _, e := range t.entries {
		t.dropLocked(e)
	}
	return n
}

// Stats is a snapshot of a table: entries in flight and kept, the kept
// ones alone and their bytes, and how many kept outcomes left by
// eviction and by expiry.
type Stats struct {
	Entries, Kept          int
	Bytes                  int64
	Evictions, Expirations uint64
}

// Stats sweeps what is due and snapshots the table.
func (t *Table[K, V]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	return Stats{len(t.entries), t.kept, t.bytes, t.evictions, t.expirations}
}

// sweepLocked drops expired outcomes off the list's back and returns the
// time it judged them by (zero without a TTL).
func (t *Table[K, V]) sweepLocked() time.Time {
	if t.ttl <= 0 {
		return time.Time{}
	}
	now := t.Now()
	for e := t.root.prev; e != &t.root && t.expired(e, now); e = t.root.prev {
		t.dropLocked(e)
		t.expirations++
	}
	return now
}

// liveLocked sweeps, then returns key's entry — in flight, or kept and
// not expired — or nil; an expired one it finds is deleted.
func (t *Table[K, V]) liveLocked(key K) *Entry[K, V] {
	now := t.sweepLocked()
	e := t.entries[key]
	if e != nil && e.next != nil && t.expired(e, now) {
		t.dropLocked(e)
		t.expirations++
		return nil
	}
	return e
}

func (t *Table[K, V]) expired(e *Entry[K, V], now time.Time) bool {
	return t.ttl > 0 && now.Sub(e.finished) > t.ttl
}

// dropLocked unregisters e, which is registered under its key, and
// takes it off the list if it is kept.
func (t *Table[K, V]) dropLocked(e *Entry[K, V]) {
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

func (t *Table[K, V]) pushFront(e *Entry[K, V]) {
	e.prev, e.next = &t.root, t.root.next
	e.next.prev = e
	t.root.next = e
	t.kept++
	t.bytes += e.size
}

func (t *Table[K, V]) unlist(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	t.kept--
	t.bytes -= e.size
}
