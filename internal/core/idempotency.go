package core

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/outcome"
)

// Idempotency keys for the v2 mutating routes (run, publish). A client
// that retries a POST after a network failure cannot know whether the
// first attempt executed; sending the same Idempotency-Key makes the
// retry safe: the first execution's response is stored and replayed,
// and a duplicate arriving while the original is still executing waits
// for that execution instead of starting a second one. Keys are scoped
// per caller identity and route, so two users (or two routes) reusing
// the same key never collide. The executions and their responses live
// in an outcome table (internal/outcome).

// IdempotencyKeyHeader is the request header carrying the client's
// chosen key; IdempotencyReplayedHeader marks a replayed response.
const (
	IdempotencyKeyHeader      = "Idempotency-Key"
	IdempotencyReplayedHeader = "Idempotency-Replayed"
)

const (
	// idemTTL bounds how long a finished keyed response is replayable,
	// counted from when it finished.
	idemTTL = 10 * time.Minute
	// idemMax bounds the finished keyed responses kept; past it the
	// least recently used goes. Executions in flight are never evicted.
	idemMax = 4096
	// maxIdempotencyKey bounds a key's length in bytes: the table keeps
	// idemMax keys, and the header limit alone would let one client pin
	// gigabytes in keys.
	maxIdempotencyKey = 255
)

// idemReply is a keyed execution's response: its status and the
// envelope's data, one JSON value. A failure is the entry's error.
type idemReply struct {
	status int
	body   []byte
}

// idempotent executes fn under the request's Idempotency-Key (if any):
// the first execution's outcome is stored and replayed to duplicates,
// and a duplicate arriving mid-execution waits for the original rather
// than re-executing. Without a key, fn runs unconditionally; a key over
// maxIdempotencyKey bytes is refused before fn runs. fn writes the
// response's data, one JSON value; the envelope around it is finished
// here, the same way for a first answer and a replay.
//
// Only definitive outcomes are replayable: successes and 4xx failures.
// Transient failures (any 5xx, and 499/canceled) reach the duplicates
// already waiting, which then execute afresh, and are not kept, so a
// later retry with the same key — the retry the key exists to make safe
// — executes fresh instead of replaying a stale outage. An execution
// that never finishes (panic unwinding through us) is finished as
// internal and not kept, so the key can never wedge.
func (s *Service) idempotent(w http.ResponseWriter, r *http.Request, c Caller, fn func(data *bytes.Buffer) (status int, err error)) {
	key := r.Header.Get(IdempotencyKeyHeader)
	if len(key) > maxIdempotencyKey {
		writeV2Error(w, ErrBadRequest.WithDetail(fmt.Sprintf("%s is %d bytes, over the limit of %d", IdempotencyKeyHeader, len(key), maxIdempotencyKey)))
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(envelopeOpen)
	if key == "" {
		status, err := fn(buf)
		if err != nil {
			writeV2Error(w, err)
			return
		}
		finishEnvelope(w, status, buf)
		return
	}
	scoped := c.IdentityID + "|" + r.Method + " " + r.URL.Path + "|" + key
	e, cl := s.idem.Lead(scoped, "", idemReply{})
	if cl != outcome.ClaimLead {
		var led bool
		var err error
		if e, led, err = s.idem.Follow(r.Context(), e, transient); err != nil {
			writeV2Error(w, wrapCtxErr(err))
			return
		}
		if !led {
			w.Header().Set(IdempotencyReplayedHeader, "true")
			if e.Err != nil {
				writeV2Error(w, e.Err)
				return
			}
			buf.Write(e.Val.body)
			finishEnvelope(w, e.Val.status, buf)
			return
		}
	}
	defer s.idem.Abandon(e, errAborted)
	status, err := fn(buf)
	if err != nil {
		serr := Classify(err)
		s.idem.Finish(e, idemReply{}, serr, replayable(serr), 0)
		writeV2Error(w, err)
		return
	}
	s.idem.Finish(e, idemReply{status, bytes.Clone(buf.Bytes()[len(envelopeOpen):])}, nil, true, 0) // buf goes back to the pool
	finishEnvelope(w, status, buf)
}

// transient is idempotency's retry rule: a duplicate that waited on an
// execution which failed transiently (its client canceled, an outage...)
// is exactly the retry the key exists for, so it executes afresh instead
// of taking that failure.
func transient(e *outcome.Entry[string, idemReply]) bool {
	return e.Err != nil && !replayable(Classify(e.Err))
}

// replayable reports whether a failure is definitive enough to replay
// to idempotency-key duplicates: client errors (4xx) are; server-side
// or transient conditions (5xx, client-closed 499) are not.
func replayable(e *Error) bool {
	return e.HTTPStatus >= 400 && e.HTTPStatus < 500 && e.HTTPStatus != StatusClientClosedRequest
}
