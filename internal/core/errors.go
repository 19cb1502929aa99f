package core

import (
	"context"
	"errors"
	"net/http"
)

// Structured service errors. Every failure the Management Service can
// return is classified by a machine-readable Code that maps to one HTTP
// status, replacing the old sentinel-error grab bag whose HTTP mapping
// lived in ad-hoc switch arms. The exported Err* values keep their old
// names so existing `errors.Is(err, core.ErrNotFound)` call sites keep
// working — they are now *Error values whose identity is their Code, so
// any wrapped or detail-carrying error with the same code matches.

// Code is a machine-readable error class, stable across releases; the
// v2 wire envelope carries it verbatim in error.code.
type Code string

// Error codes.
const (
	CodeBadRequest    Code = "bad_request"
	CodeTooLarge      Code = "payload_too_large"
	CodeUnauthorized  Code = "unauthorized"
	CodeForbidden     Code = "forbidden"
	CodeNotFound      Code = "not_found"
	CodeTaskNotFound  Code = "task_not_found"
	CodeConflict      Code = "conflict"
	CodeNoTaskManager Code = "no_task_manager"
	CodeTimeout       Code = "timeout"
	CodeCanceled      Code = "canceled"
	CodeTaskFailed    Code = "task_failed"
	CodeOverloaded    Code = "overloaded"
	CodeQuotaExceeded Code = "quota_exceeded"
	CodeUpstream      Code = "upstream_error"
	CodeUnavailable   Code = "unavailable"
	CodeInternal      Code = "internal"
)

// StatusClientClosedRequest is the non-standard (nginx) status reported
// when the client canceled the request before a response was written.
// No response actually reaches such a client; the status exists for
// logs and metrics.
const StatusClientClosedRequest = 499

// Error is a structured service error: a stable machine-readable Code,
// the HTTP status it maps to, a human Message, and optional Detail with
// request-specific context. Compare with errors.Is against the Err*
// sentinels (identity is the Code, not the pointer) and extract with
// errors.As for the code/status/detail fields.
type Error struct {
	Code       Code
	HTTPStatus int
	Message    string
	Detail     string
	cause      error
}

// Error renders "Message" or "Message: Detail".
func (e *Error) Error() string {
	if e.Detail != "" {
		return e.Message + ": " + e.Detail
	}
	return e.Message
}

// Unwrap exposes the underlying cause (e.g. a context error), so
// errors.Is(err, context.Canceled) keeps working through the typed
// wrapper.
func (e *Error) Unwrap() error { return e.cause }

// Is matches any *Error with the same Code, making every derived or
// detail-carrying error equal to its sentinel under errors.Is.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// WithDetail returns a copy of the error carrying request-specific
// detail (the sentinel itself is never mutated).
func (e *Error) WithDetail(detail string) *Error {
	cp := *e
	cp.Detail = detail
	return &cp
}

// Sentinel errors, one per code. fmt.Errorf("%w: ...", ErrNotFound)
// wrapping still works and still matches errors.Is(err, ErrNotFound).
var (
	ErrBadRequest    = &Error{Code: CodeBadRequest, HTTPStatus: http.StatusBadRequest, Message: "core: bad request"}
	ErrTooLarge      = &Error{Code: CodeTooLarge, HTTPStatus: http.StatusRequestEntityTooLarge, Message: "core: request body too large"}
	ErrUnauthorized  = &Error{Code: CodeUnauthorized, HTTPStatus: http.StatusUnauthorized, Message: "core: authentication failed"}
	ErrForbidden     = &Error{Code: CodeForbidden, HTTPStatus: http.StatusForbidden, Message: "core: access denied"}
	ErrNotFound      = &Error{Code: CodeNotFound, HTTPStatus: http.StatusNotFound, Message: "core: servable not found"}
	ErrTaskNotFound  = &Error{Code: CodeTaskNotFound, HTTPStatus: http.StatusNotFound, Message: "core: task not found"}
	ErrConflict      = &Error{Code: CodeConflict, HTTPStatus: http.StatusConflict, Message: "core: conflicting request"}
	ErrNoTaskManager = &Error{Code: CodeNoTaskManager, HTTPStatus: http.StatusServiceUnavailable, Message: "core: no task manager registered"}
	ErrTimeout       = &Error{Code: CodeTimeout, HTTPStatus: http.StatusGatewayTimeout, Message: "core: task timed out"}
	ErrCanceled      = &Error{Code: CodeCanceled, HTTPStatus: StatusClientClosedRequest, Message: "core: request canceled"}
	ErrTaskFailed    = &Error{Code: CodeTaskFailed, HTTPStatus: http.StatusBadGateway, Message: "core: task failed"}
	ErrOverloaded    = &Error{Code: CodeOverloaded, HTTPStatus: http.StatusTooManyRequests, Message: "core: servable overloaded"}
	ErrQuotaExceeded = &Error{Code: CodeQuotaExceeded, HTTPStatus: http.StatusTooManyRequests, Message: "core: tenant quota exceeded"}
	ErrUpstream      = &Error{Code: CodeUpstream, HTTPStatus: http.StatusBadGateway, Message: "core: upstream failure"}
	// ErrUnavailable is a change the durable store could not take: the
	// WAL refused the append, and nothing changed.
	ErrUnavailable = &Error{Code: CodeUnavailable, HTTPStatus: http.StatusServiceUnavailable, Message: "core: durable store unavailable"}
	ErrInternal    = &Error{Code: CodeInternal, HTTPStatus: http.StatusInternalServerError, Message: "core: internal error"}
)

// errAborted finishes a keyed execution whose leader unwound without
// finishing it (outcome.Table.Abandon): its followers answer internal.
var errAborted = ErrInternal.WithDetail("execution aborted")

// wrapCtxErr converts a context termination into its typed service
// error, keeping the original as the cause so errors.Is(err,
// context.Canceled) / errors.Is(err, context.DeadlineExceeded) hold.
func wrapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeCanceled, HTTPStatus: StatusClientClosedRequest, Message: ErrCanceled.Message, cause: err}
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeTimeout, HTTPStatus: http.StatusGatewayTimeout, Message: ErrTimeout.Message, cause: err}
	default:
		return err
	}
}

// isCtxErr reports whether err terminates because a context ended
// (directly or through a typed wrapper).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Classify resolves any error to its structured form: typed errors pass
// through, bare context errors are wrapped, and everything else —
// validation failures, malformed bodies — defaults to bad_request.
func Classify(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		if e.Detail == "" && err.Error() != e.Error() {
			// Keep the wrapping chain's added context visible.
			e = e.WithDetail(err.Error())
		}
		return e
	}
	if isCtxErr(err) {
		var wrapped *Error
		errors.As(wrapCtxErr(err), &wrapped)
		return wrapped.WithDetail(err.Error())
	}
	return ErrBadRequest.WithDetail(err.Error())
}
