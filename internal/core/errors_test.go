package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// sentinelStatus is every Err* sentinel with its HTTP status: the table
// IS the API contract, so any addition or change must be deliberate.
var sentinelStatus = map[*Error]int{
	ErrBadRequest:    http.StatusBadRequest,
	ErrTooLarge:      http.StatusRequestEntityTooLarge,
	ErrUnauthorized:  http.StatusUnauthorized,
	ErrForbidden:     http.StatusForbidden,
	ErrNotFound:      http.StatusNotFound,
	ErrTaskNotFound:  http.StatusNotFound,
	ErrConflict:      http.StatusConflict,
	ErrNoTaskManager: http.StatusServiceUnavailable,
	ErrTimeout:       http.StatusGatewayTimeout,
	ErrCanceled:      StatusClientClosedRequest,
	ErrTaskFailed:    http.StatusBadGateway,
	ErrOverloaded:    http.StatusTooManyRequests,
	ErrQuotaExceeded: http.StatusTooManyRequests,
	ErrUpstream:      http.StatusBadGateway,
	ErrUnavailable:   http.StatusServiceUnavailable,
	ErrInternal:      http.StatusInternalServerError,
}

// TestSentinelStatusTable pins the status of every sentinel, bare and
// wrapped.
func TestSentinelStatusTable(t *testing.T) {
	for sentinel, status := range sentinelStatus {
		if got := Classify(sentinel).HTTPStatus; got != status {
			t.Errorf("%s: status %d, want %d", sentinel.Code, got, status)
		}
		// Wrapping with context must not change the mapping.
		wrapped := fmt.Errorf("%w: extra detail", sentinel)
		if got := Classify(wrapped).HTTPStatus; got != status {
			t.Errorf("%s wrapped: status %d, want %d", sentinel.Code, got, status)
		}
	}
}

// TestSentinelIdentity verifies errors.Is semantics: a sentinel matches
// itself, wrapped forms, and detail-carrying copies — but never a
// different code.
func TestSentinelIdentity(t *testing.T) {
	for sentinel := range sentinelStatus {
		wrapped := fmt.Errorf("%w: with context", sentinel)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("wrapped %s does not match its sentinel", sentinel.Code)
		}
		if !errors.Is(sentinel.WithDetail("d"), sentinel) {
			t.Errorf("detailed %s does not match its sentinel", sentinel.Code)
		}
		for other := range sentinelStatus {
			if other.Code != sentinel.Code && errors.Is(wrapped, other) {
				t.Errorf("%s matches unrelated sentinel %s", sentinel.Code, other.Code)
			}
		}
		var typed *Error
		if !errors.As(wrapped, &typed) || typed.Code != sentinel.Code {
			t.Errorf("errors.As failed to extract %s", sentinel.Code)
		}
	}
}

func TestClassifyContextErrors(t *testing.T) {
	cases := []struct {
		err    error
		code   Code
		status int
	}{
		{context.Canceled, CodeCanceled, StatusClientClosedRequest},
		{context.DeadlineExceeded, CodeTimeout, http.StatusGatewayTimeout},
		{fmt.Errorf("dispatch: %w", context.Canceled), CodeCanceled, StatusClientClosedRequest},
		{errors.New("anything else"), CodeBadRequest, http.StatusBadRequest},
		// A reply this service cannot read is the site's failure, as
		// dispatchTo wraps it; bare, it would fall to bad_request above.
		{fmt.Errorf("%w: bad reply from task manager tm-1: %v", ErrUpstream, errors.New("unexpected end of JSON input")),
			CodeUpstream, http.StatusBadGateway},
	}
	for _, tc := range cases {
		e := Classify(tc.err)
		if e.Code != tc.code || e.HTTPStatus != tc.status {
			t.Errorf("Classify(%v) = (%s, %d), want (%s, %d)", tc.err, e.Code, e.HTTPStatus, tc.code, tc.status)
		}
	}
}

// TestWrapCtxErrKeepsBothIdentities: the typed wrapper must satisfy
// errors.Is against the raw context error AND the service sentinel —
// the Go API contract for cancellation.
func TestWrapCtxErrKeepsBothIdentities(t *testing.T) {
	err := wrapCtxErr(context.Canceled)
	if !errors.Is(err, context.Canceled) {
		t.Error("wrapped cancel lost context.Canceled identity")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Error("wrapped cancel does not match ErrCanceled")
	}
	err = wrapCtxErr(context.DeadlineExceeded)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("wrapped deadline lost context.DeadlineExceeded identity")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Error("wrapped deadline does not match ErrTimeout")
	}
}

func TestErrorDetailRendering(t *testing.T) {
	e := ErrNotFound.WithDetail("anonymous/missing")
	if got, want := e.Error(), "core: servable not found: anonymous/missing"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if ErrNotFound.Detail != "" {
		t.Error("WithDetail mutated the sentinel")
	}
}
