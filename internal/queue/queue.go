// Package queue implements the ZeroMQ-style task conduit of §IV-A: the
// Management Service "uses a ZeroMQ queue to send tasks to registered
// Task Managers for execution. The queue provides a reliable messaging
// model that ensures tasks are received and executed."
//
// The broker hosts named queues. Producers push messages; consumers
// take them and must acknowledge within a visibility timeout or the
// message is redelivered (at-least-once semantics). Every consumer — an
// in-process PullCtx, a remote session (transport.go) — is a credit and a
// channel: the broker hands it one ready message per credit.
// Request/reply is layered on top, mirroring the paper's flow where Task
// Managers "retrieve waiting tasks from the queue, unpackage the
// request, execute the task, and return the results via the same
// queue": a request carries the broker's inbox as ReplyTo plus a
// correlation ID, and its reply — which is also its ack — goes straight
// to the requester waiting on that ID.
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
	"slices"
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

// consumer takes messages from one queue through ch: credit is how many
// more the broker may hand it, and each hand-off spends one and sends
// the claimed message on ch. Credit never exceeds the room left in ch,
// so a hand-off never blocks and is made under q.mu: a consumer is
// handed nothing once withdraw returns.
type consumer struct {
	credit int // q.mu
	ch     chan Message
}

// maxCredit bounds the credit a client grants one queue, and so the
// messages a remote session holds unwritten (transport.go).
const maxCredit = 256

// namedQueue holds per-tenant ready lanes plus the queue-wide pending
// set and the registered consumers. Invariant: every lane present in
// lanes / order has at least one ready message — lanes are created on
// first push and removed the moment they drain, so the DRR rotation
// never spins over empty lanes and a single-tenant queue is one FIFO.
// While any consumer holds credit, no message waits on a lane.
type namedQueue struct {
	mu        sync.Mutex
	lanes     map[string]*lane
	order     []string // DRR visit order (lane creation order)
	rr        int      // index into order of the lane being served
	pending   map[string]*pendingMsg
	consumers []*consumer // registered until withdrawn, oldest first
}

func newNamedQueue() *namedQueue {
	return &namedQueue{
		lanes:   make(map[string]*lane),
		pending: make(map[string]*pendingMsg),
	}
}

// nextConsumerLocked returns the oldest consumer that holds credit, or
// nil. q.mu held.
func (q *namedQueue) nextConsumerLocked() *consumer {
	for _, c := range q.consumers {
		if c.credit > 0 {
			return c
		}
	}
	return nil
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
	stopSweep  context.CancelFunc

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

	// pushes and pushFailures count the frames remote sessions were
	// handed (transport.go): written, and not written.
	pushes, pushFailures atomic.Uint64
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
		laneWeight: make(map[string]int),
		dequeues:   make(map[string]uint64),
		inbox:      make(map[string]chan []byte),
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.stopSweep = cancel
	go b.sweeper(ctx)
	return b
}

// Close stops the redelivery sweeper. Safe to call more than once.
func (b *Broker) Close() { b.stopSweep() }

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

// lookup returns the named queue or, when the broker has none, an empty
// one it does not keep: unlike queue it adds nothing, so a name read off
// the wire costs the broker nothing.
func (b *Broker) lookup(name string) *namedQueue {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if q, ok := b.queues[name]; ok {
		return q
	}
	return &namedQueue{}
}

// queue returns the named queue, creating it: for producers and
// consumers, never for lookups.
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
	b.enqueue(b.queue(queueName), msg)
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

// ConsumerStats reports the credit layer: the registered consumers
// (remote sessions and in-process PullCtx calls waiting), the credit
// they hold per queue that has any, and the push frames remote sessions
// were handed, written and not written.
func (b *Broker) ConsumerStats() (consumers int, credit map[string]int, pushes, failures uint64) {
	credit = make(map[string]int)
	b.mu.RLock()
	for name, q := range b.queues {
		q.mu.Lock()
		consumers += len(q.consumers)
		for _, c := range q.consumers {
			credit[name] += c.credit
		}
		q.mu.Unlock()
	}
	b.mu.RUnlock()
	return consumers, credit, b.pushes.Load(), b.pushFailures.Load()
}

// enqueue makes msg ready on q, or hands it to a consumer with credit.
func (b *Broker) enqueue(q *namedQueue, msg Message) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// A consumer holds credit only while no lane is ready, so nothing is
	// ahead of msg and fairness has nothing to arbitrate.
	if c := q.nextConsumerLocked(); c != nil {
		b.handOffLocked(q, c, msg)
		return
	}
	q.laneLocked(msg.Tenant).ready.PushBack(msg)
}

// dispatchLocked hands ready messages, in the DRR order of popLocked,
// to consumers with credit until either runs out. q.mu held.
func (b *Broker) dispatchLocked(q *namedQueue) {
	for c := q.nextConsumerLocked(); c != nil; c = q.nextConsumerLocked() {
		msg, ok := b.popLocked(q)
		if !ok {
			return
		}
		b.handOffLocked(q, c, msg)
	}
}

// handOffLocked claims msg for c, spending one of its credits; the
// delivery counts toward the lane's dequeue share. q.mu held.
func (b *Broker) handOffLocked(q *namedQueue, c *consumer, msg Message) {
	c.credit--
	b.claimLocked(q, &msg)
	b.noteDequeue(msg.Tenant)
	c.ch <- msg // never blocks: see consumer
}

// claimLocked marks msg delivered once more: pending until its
// visibility deadline. q.mu held.
func (b *Broker) claimLocked(q *namedQueue, msg *Message) {
	msg.Attempt++
	q.pending[msg.ID] = &pendingMsg{msg: *msg, deadline: time.Now().Add(b.visibility)}
}

// grant adds n to c's credit, up to the room left in c.ch, registering
// c on q first when register is set, and hands it what is ready. A withdrawn
// consumer keeps the credit and is handed nothing.
func (b *Broker) grant(q *namedQueue, c *consumer, n int, register bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if register {
		q.consumers = append(q.consumers, c)
	}
	c.credit = min(c.credit+n, cap(c.ch)-len(c.ch))
	b.dispatchLocked(q)
}

// withdraw unregisters c from q for good and returns the credit it
// still held: zero means a message has been handed to it.
func (b *Broker) withdraw(q *namedQueue, c *consumer) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(q.consumers, c); i >= 0 {
		q.consumers = slices.Delete(q.consumers, i, i+1)
	}
	n := c.credit
	c.credit = 0
	return n
}

// take removes a delivered message from the pending set and returns
// it, or nil if it is not pending.
func (q *namedQueue) take(msgID string) *pendingMsg {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.pending[msgID]
	if ok {
		delete(q.pending, msgID)
	}
	return p
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

// PullCtx waits up to timeout for a message on the named queue, and no
// longer than ctx lasts: ok is false when either ends first, so a
// canceled consumer never sits out its full poll. A timeout <= 0 means
// "bounded by ctx alone"; with a background ctx that degenerates to a
// non-blocking poll. A call that finds nothing ready waits as a
// consumer with one credit, withdrawn when it returns. Delivered
// messages must be Ack'd before the visibility timeout or they are
// requeued.
func (b *Broker) PullCtx(ctx context.Context, queueName string, timeout time.Duration) (Message, bool) {
	q := b.queue(queueName)
	q.mu.Lock()
	if msg, ok := b.popLocked(q); ok {
		b.claimLocked(q, &msg)
		q.mu.Unlock()
		b.noteDequeue(msg.Tenant)
		return msg, true
	}
	if timeout <= 0 && ctx.Done() == nil {
		q.mu.Unlock()
		return Message{}, false
	}
	w := waiters.Get().(*consumer)
	defer waiters.Put(w)
	w.credit = 1
	q.consumers = append(q.consumers, w)
	q.mu.Unlock()
	var timerC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timerC = timer.C
	}
	select {
	case msg := <-w.ch:
		b.withdraw(q, w)
		return msg, true
	case <-timerC:
	case <-ctx.Done():
	}
	if b.withdraw(q, w) > 0 {
		return Message{}, false
	}
	return <-w.ch, true // handed over just now
}

// waiters pools the consumers PullCtx calls wait as: a call returns its
// own withdrawn and with ch empty, so nothing hands it a message before
// the next call registers it.
var waiters = sync.Pool{New: func() any { return &consumer{ch: make(chan Message, 1)} }}

// Drop removes a not-yet-delivered message from a queue's ready lanes,
// reporting whether it was found. A canceled requester uses it to
// withdraw its task before any consumer picks it up; once delivered
// (pending) the message is the consumer's and Drop reports false.
func (b *Broker) Drop(queueName, msgID string) bool {
	q := b.lookup(queueName)
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
// Consumers are left in place, with their credit: a revived consumer
// simply resumes on an empty queue.
func (b *Broker) Purge(queueName string) int {
	q := b.lookup(queueName)
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
	return b.lookup(queueName).take(msgID) != nil
}

// Nack returns a delivered message to the queue (its own lane)
// immediately.
func (b *Broker) Nack(queueName, msgID string) bool {
	q := b.lookup(queueName)
	p := q.take(msgID)
	if p != nil {
		b.enqueue(q, p.msg)
	}
	return p != nil
}

// Len reports ready (not in-flight) messages on a queue, across all
// lanes.
func (b *Broker) Len(queueName string) int {
	q := b.lookup(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.readyLenLocked()
}

// InFlight reports delivered-but-unacknowledged messages on a queue.
func (b *Broker) InFlight(queueName string) int {
	q := b.lookup(queueName)
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// sweeper periodically requeues messages whose visibility expired.
func (b *Broker) sweeper(ctx context.Context) {
	interval := b.visibility / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
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
			b.enqueue(q, msg)
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
