// Package queue implements the ZeroMQ-style task conduit of §IV-A: the
// Management Service "uses a ZeroMQ queue to send tasks to registered
// Task Managers for execution. The queue provides a reliable messaging
// model that ensures tasks are received and executed."
//
// The broker hosts named queues. Producers push messages; consumers pull
// and must acknowledge within a visibility timeout or the message is
// redelivered (at-least-once semantics). Request/reply is layered on
// top, mirroring the paper's flow where Task Managers "retrieve waiting
// tasks from the queue, unpackage the request, execute the task, and
// return the results via the same queue": a request carries the
// broker's inbox as ReplyTo plus a correlation ID, and its reply — which
// is also its ack — goes straight to the requester waiting on that ID.
//
// Fairness: each named queue is internally striped into per-tenant
// lanes, drained by deficit round-robin (DRR) weighted by the tenant's
// priority class (SetLaneWeight). A push carries an optional tenant
// tag; untagged messages land in the default lane (""), and a queue
// that only ever sees one lane degenerates to exactly the old single
// FIFO — order, redelivery, and Drop/Purge semantics unchanged. With
// multiple lanes, a flood from one tenant can deepen only its own
// lane: the DRR scheduler keeps serving other lanes at their weighted
// share, so a quiet tenant's latency is bounded by its own backlog,
// not the aggressor's.
package queue

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Message is one queued envelope.
type Message struct {
	// ID is assigned by the broker on enqueue.
	ID string `json:"id"`
	// Queue the message was published to.
	Queue string `json:"queue"`
	// ReplyTo names the queue where a reply should be pushed ("" if
	// no reply is expected).
	ReplyTo string `json:"reply_to,omitempty"`
	// CorrelationID links a reply to its request.
	CorrelationID string `json:"correlation_id,omitempty"`
	// Tenant is the fairness lane tag ("" = default lane). Redelivery
	// returns a message to its own lane.
	Tenant string `json:"tenant,omitempty"`
	// Body is the opaque payload.
	Body []byte `json:"body"`
	// Attempt counts deliveries (1 on first delivery).
	Attempt int `json:"attempt"`
}

// inboxName is the reserved ReplyTo of RequestCtx's task messages. It
// is not a queue: a push addressed to it is matched by correlation ID
// against the requesters waiting in Broker.inbox and never stored.
const inboxName = "dlhub.inbox"

// NewID returns a random 128-bit hex identifier (one allocation).
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("queue: crypto/rand failed: " + err.Error())
	}
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

type pendingMsg struct {
	msg      Message
	deadline time.Time
}

// lane is one tenant's FIFO within a named queue. deficit is the DRR
// byte^W message credit: each round-robin visit tops it up by the
// lane's weight, and each dequeue spends one.
type lane struct {
	ready   *list.List // of Message
	deficit int
}

// namedQueue holds per-tenant ready lanes plus the queue-wide pending
// set and parked consumers. Invariant: every lane present in lanes /
// order has at least one ready message — lanes are created on first
// push and removed the moment they drain, so the DRR rotation never
// spins over empty lanes and a single-tenant queue is one FIFO.
type namedQueue struct {
	mu      sync.Mutex
	lanes   map[string]*lane
	order   []string // DRR visit order (lane creation order)
	rr      int      // index into order of the lane being served
	pending map[string]*pendingMsg
	waiters *list.List // of chan Message
}

func newNamedQueue() *namedQueue {
	return &namedQueue{
		lanes:   make(map[string]*lane),
		pending: make(map[string]*pendingMsg),
		waiters: list.New(),
	}
}

// laneLocked returns the tag's lane, creating and enrolling it in the
// rotation if needed. q.mu held.
func (q *namedQueue) laneLocked(tag string) *lane {
	ln, ok := q.lanes[tag]
	if !ok {
		ln = &lane{ready: list.New()}
		q.lanes[tag] = ln
		q.order = append(q.order, tag)
	}
	return ln
}

// removeLaneLocked drops a drained lane from the rotation, keeping rr
// pointed at the same next-up lane. q.mu held.
func (q *namedQueue) removeLaneLocked(tag string) {
	delete(q.lanes, tag)
	for i, name := range q.order {
		if name == tag {
			q.order = append(q.order[:i], q.order[i+1:]...)
			if i < q.rr {
				q.rr--
			}
			break
		}
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
}

// readyLenLocked sums ready messages across lanes. q.mu held.
func (q *namedQueue) readyLenLocked() int {
	n := 0
	for _, ln := range q.lanes {
		n += ln.ready.Len()
	}
	return n
}

// Broker is an in-process message broker. Remote access goes through
// the rpc-based Endpoint in transport.go; in-process components (tests,
// single-binary deployments) use it directly.
type Broker struct {
	mu     sync.RWMutex
	queues map[string]*namedQueue

	visibility time.Duration
	stopSweep  chan struct{}
	sweepOnce  sync.Once

	// fairMu guards the broker-wide fairness state: configured lane
	// weights and the per-tenant dequeue counters (the stats
	// observable for dequeue share). It is a leaf lock — acquired
	// under q.mu, never the other way around.
	fairMu     sync.Mutex
	laneWeight map[string]int
	dequeues   map[string]uint64

	// inbox holds one buffered channel per RequestCtx in flight, keyed
	// by the correlation ID its task message carries (a counter: the
	// IDs are broker-internal and not secrets). inboxMu is a leaf lock:
	// nothing is acquired under it and it is released before the send.
	inboxMu sync.Mutex
	inbox   map[string]chan []byte
	orphans uint64 // replies that found no requester; inboxMu held
	corrSeq atomic.Uint64
}

// NewBroker creates a broker whose unacknowledged deliveries become
// visible again after the given timeout.
func NewBroker(visibility time.Duration) *Broker {
	if visibility <= 0 {
		visibility = 30 * time.Second
	}
	b := &Broker{
		queues:     make(map[string]*namedQueue),
		visibility: visibility,
		stopSweep:  make(chan struct{}),
		laneWeight: make(map[string]int),
		dequeues:   make(map[string]uint64),
		inbox:      make(map[string]chan []byte),
	}
	go b.sweeper()
	return b
}

// Close stops the redelivery sweeper.
func (b *Broker) Close() { b.sweepOnce.Do(func() { close(b.stopSweep) }) }

// SetLaneWeight sets the DRR quantum for a tenant lane across every
// queue (weights are a tenant property, not a queue property). Weights
// below 1 are clamped to 1; unconfigured lanes weigh 1.
func (b *Broker) SetLaneWeight(tenant string, weight int) {
	if weight < 1 {
		weight = 1
	}
	b.fairMu.Lock()
	b.laneWeight[tenant] = weight
	b.fairMu.Unlock()
}

// laneWeightOf resolves a lane's DRR quantum (default 1).
func (b *Broker) laneWeightOf(tenant string) int {
	b.fairMu.Lock()
	defer b.fairMu.Unlock()
	if w, ok := b.laneWeight[tenant]; ok {
		return w
	}
	return 1
}

// noteDequeue counts one delivery on a tenant lane.
func (b *Broker) noteDequeue(tenant string) {
	b.fairMu.Lock()
	b.dequeues[tenant]++
	b.fairMu.Unlock()
}

// LaneDequeues snapshots the per-tenant delivery counters (a reply
// handed to its requester counts on the requesting tenant's own tag, or
// the default lane).
func (b *Broker) LaneDequeues() map[string]uint64 {
	b.fairMu.Lock()
	defer b.fairMu.Unlock()
	out := make(map[string]uint64, len(b.dequeues))
	for t, n := range b.dequeues {
		out[t] = n
	}
	return out
}

func (b *Broker) queue(name string) *namedQueue {
	b.mu.RLock()
	q, ok := b.queues[name]
	b.mu.RUnlock()
	if ok {
		return q
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if q, ok = b.queues[name]; ok {
		return q
	}
	q = newNamedQueue()
	b.queues[name] = q
	return q
}

// Push enqueues body on the named queue and returns the message ID.
// tenant tags the fairness lane ("" = default). A push addressed to the
// reserved inbox name is a reply: it goes to the requester waiting on
// correlationID (or is dropped, see deliverReply) and has no ID.
func (b *Broker) Push(queueName string, body []byte, replyTo, correlationID, tenant string) string {
	if queueName == inboxName {
		b.deliverReply(correlationID, body, tenant)
		return ""
	}
	msg := Message{
		ID:            NewID(),
		Queue:         queueName,
		ReplyTo:       replyTo,
		CorrelationID: correlationID,
		Tenant:        tenant,
		Body:          body,
	}
	b.deliver(b.queue(queueName), msg)
	return msg.ID
}

// deliverReply hands body to the RequestCtx waiting on corr, billing
// the delivery to the requesting tenant's lane. A reply that finds no
// waiter — its requester gave up, or an earlier delivery of the same
// task already answered (at-least-once: a task outliving the visibility
// timeout runs and replies twice) — is counted and dropped, so
// requesters see exactly one reply and late ones cannot accumulate.
func (b *Broker) deliverReply(corr string, body []byte, tenant string) {
	b.inboxMu.Lock()
	ch, ok := b.inbox[corr]
	if ok {
		delete(b.inbox, corr)
	} else {
		b.orphans++
	}
	b.inboxMu.Unlock()
	if ok {
		b.noteDequeue(tenant)
		ch <- body // buffered, and the delete above makes this the only send
	}
}

// PendingRequests reports how many RequestCtx calls are waiting for a
// reply — the leak observable: it returns to zero once every request
// has completed, timed out or been canceled.
func (b *Broker) PendingRequests() int {
	b.inboxMu.Lock()
	defer b.inboxMu.Unlock()
	return len(b.inbox)
}

// OrphanReplies counts replies dropped because no requester was waiting
// for them (late after a cancel or timeout, or a redelivered task's
// second answer).
func (b *Broker) OrphanReplies() uint64 {
	b.inboxMu.Lock()
	defer b.inboxMu.Unlock()
	return b.orphans
}

func (b *Broker) deliver(q *namedQueue, msg Message) {
	q.mu.Lock()
	// Hand directly to a waiting consumer when one is parked. The
	// queue is necessarily empty then (a waiter only parks on an empty
	// queue), so fairness has nothing to arbitrate — but the delivery
	// still counts toward the lane's dequeue share.
	for q.waiters.Len() > 0 {
		front := q.waiters.Front()
		ch := front.Value.(chan Message)
		q.waiters.Remove(front)
		msg.Attempt++
		q.pending[msg.ID] = &pendingMsg{msg: msg, deadline: time.Now().Add(b.visibility)}
		q.mu.Unlock()
		b.noteDequeue(msg.Tenant)
		ch <- msg
		return
	}
	q.laneLocked(msg.Tenant).ready.PushBack(msg)
	q.mu.Unlock()
}

// popLocked removes and returns the next ready message under deficit
// round-robin: the rotation stays on one lane until its deficit (topped
// up by the lane weight on each visit) is spent or the lane drains,
// then advances. q.mu held; reports false on an empty queue.
func (b *Broker) popLocked(q *namedQueue) (Message, bool) {
	if len(q.order) == 0 {
		return Message{}, false
	}
	if q.rr >= len(q.order) {
		q.rr = 0
	}
	tag := q.order[q.rr]
	ln := q.lanes[tag]
	if ln.deficit <= 0 {
		ln.deficit = b.laneWeightOf(tag)
	}
	msg := ln.ready.Remove(ln.ready.Front()).(Message)
	ln.deficit--
	switch {
	case ln.ready.Len() == 0:
		// Drained lanes leave the rotation (and forfeit leftover
		// credit — an idle tenant must not bank a burst).
		q.removeLaneLocked(tag)
	case ln.deficit <= 0:
		q.rr++
		if q.rr >= len(q.order) {
			q.rr = 0
		}
	}
	return msg, true
}

// Pull waits up to timeout for a message on the named queue. ok is false
// on timeout. Delivered messages must be Ack'd before the visibility
// timeout or they are requeued.
func (b *Broker) Pull(queueName string, timeout time.Duration) (Message, bool) {
	return b.PullCtx(context.Background(), queueName, timeout)
}

// PullCtx is Pull bounded additionally by ctx: it returns early (ok
// false) when ctx ends, so a canceled consumer never sits out its full
// poll timeout. A timeout <= 0 means "bounded by ctx alone"; with a
// background ctx that degenerates to the old non-blocking poll.
func (b *Broker) PullCtx(ctx context.Context, queueName string, timeout time.Duration) (Message, bool) {
	q := b.queue(queueName)
	q.mu.Lock()
	if msg, ok := b.popLocked(q); ok {
		msg.Attempt++
		q.pending[msg.ID] = &pendingMsg{msg: msg, deadline: time.Now().Add(b.visibility)}
		q.mu.Unlock()
		b.noteDequeue(msg.Tenant)
		return msg, true
	}
	if timeout <= 0 && ctx.Done() == nil {
		q.mu.Unlock()
		return Message{}, false
	}
	ch := make(chan Message, 1)
	elem := q.waiters.PushBack(ch)
	q.mu.Unlock()

	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	abort := func() (Message, bool) {
		q.mu.Lock()
		// Remove our waiter; a concurrent deliver may have already
		// removed it and sent — check the channel once more.
		q.waiters.Remove(elem)
		q.mu.Unlock()
		select {
		case msg := <-ch:
			return msg, true
		default:
			return Message{}, false
		}
	}
	select {
	case msg := <-ch:
		return msg, true
	case <-timerC:
		return abort()
	case <-ctx.Done():
		return abort()
	}
}

// Drop removes a not-yet-delivered message from a queue's ready lanes,
// reporting whether it was found. A canceled requester uses it to
// withdraw its task before any consumer picks it up; once delivered
// (pending) the message is the consumer's and Drop reports false.
func (b *Broker) Drop(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	for tag, ln := range q.lanes {
		for e := ln.ready.Front(); e != nil; e = e.Next() {
			if e.Value.(Message).ID == msgID {
				ln.ready.Remove(e)
				if ln.ready.Len() == 0 {
					q.removeLaneLocked(tag)
				}
				return true
			}
		}
	}
	return false
}

// Purge withdraws every message from a queue — ready AND delivered-but-
// unacknowledged — returning how many were removed. It is the
// dead-consumer cleanup: when a Task Manager is declared lost or
// deregistered, tasks it claimed (pulled, never acked) must not sit out
// the visibility timeout only to be redelivered into a queue nobody
// consumes, and tasks still ready must not strand their requesters.
// Parked consumers are left in place: a revived consumer simply resumes
// on an empty queue.
func (b *Broker) Purge(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.readyLenLocked() + len(q.pending)
	q.lanes = make(map[string]*lane)
	q.order = nil
	q.rr = 0
	q.pending = make(map[string]*pendingMsg)
	return n
}

// Ack confirms processing of a delivered message, removing it from the
// redelivery set. It reports whether the message was pending.
func (b *Broker) Ack(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.pending[msgID]; !ok {
		return false
	}
	delete(q.pending, msgID)
	return true
}

// Nack returns a delivered message to the queue (its own lane)
// immediately.
func (b *Broker) Nack(queueName, msgID string) bool {
	q := b.queue(queueName)
	q.mu.Lock()
	p, ok := q.pending[msgID]
	if !ok {
		q.mu.Unlock()
		return false
	}
	delete(q.pending, msgID)
	q.mu.Unlock()
	b.deliver(q, p.msg)
	return true
}

// Len reports ready (not in-flight) messages on a queue, across all
// lanes.
func (b *Broker) Len(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.readyLenLocked()
}

// InFlight reports delivered-but-unacknowledged messages on a queue.
func (b *Broker) InFlight(queueName string) int {
	q := b.queue(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// sweeper periodically requeues messages whose visibility expired.
func (b *Broker) sweeper() {
	interval := b.visibility / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stopSweep:
			return
		case <-ticker.C:
			b.sweep(time.Now())
		}
	}
}

func (b *Broker) sweep(now time.Time) {
	b.mu.RLock()
	queues := make([]*namedQueue, 0, len(b.queues))
	for _, q := range b.queues {
		queues = append(queues, q)
	}
	b.mu.RUnlock()
	for _, q := range queues {
		var expired []Message
		q.mu.Lock()
		for id, p := range q.pending {
			if now.After(p.deadline) {
				expired = append(expired, p.msg)
				delete(q.pending, id)
			}
		}
		q.mu.Unlock()
		for _, msg := range expired {
			b.deliver(q, msg)
		}
	}
}

// RequestCtx pushes body on queueName and waits for the reply. It is
// the synchronous-invocation primitive of §IV-A. The task message's
// ReplyTo is the inbox and its correlation ID names this call's slot in
// it, so the consumer's Reply lands on the channel below with no queue
// in between. The wait ends as soon as ctx is canceled or its deadline
// passes and returns ctx.Err(); a ctx with neither waits indefinitely.
// On early termination the slot is released and the request message is
// withdrawn from the task queue when no consumer has pulled it yet, so
// canceled work never executes needlessly; if it was already pulled,
// its eventual reply finds no slot and is dropped (OrphanReplies).
// tenant tags the request's fairness lane on the task queue.
func (b *Broker) RequestCtx(ctx context.Context, queueName string, body []byte, tenant string) ([]byte, error) {
	corr := strconv.FormatUint(b.corrSeq.Add(1), 36)
	ch := make(chan []byte, 1)
	b.inboxMu.Lock()
	b.inbox[corr] = ch
	b.inboxMu.Unlock()
	msgID := b.Push(queueName, body, inboxName, corr, tenant)
	select {
	case reply := <-ch:
		return reply, nil
	case <-ctx.Done():
	}
	b.inboxMu.Lock()
	delete(b.inbox, corr)
	b.inboxMu.Unlock()
	b.Drop(queueName, msgID)
	return nil, ctx.Err()
}

// Reply answers msg and acknowledges it, in that order: the response
// goes to msg.ReplyTo (the requester's inbox slot, or a named queue; ""
// expects no reply) carrying the request's correlation ID and tenant
// tag, then msg leaves the redelivery set. Reply is therefore the
// consumer's ack — a consumer that replies need not also Ack. A reply
// that arrives after the visibility timeout finds msg back on its ready
// lane instead: the requester has its answer now, so the queued copy is
// withdrawn rather than left to run again for nobody.
func (b *Broker) Reply(msg Message, body []byte) {
	if msg.ReplyTo != "" {
		b.Push(msg.ReplyTo, body, "", msg.CorrelationID, msg.Tenant)
	}
	if !b.Ack(msg.Queue, msg.ID) {
		b.Drop(msg.Queue, msg.ID)
	}
}
