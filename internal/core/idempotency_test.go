package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/servable"
)

// keyedReply is one keyed request's outcome as the client sees it.
type keyedReply struct {
	status   int
	replayed bool // marked Idempotency-Replayed
	body     []byte
}

// keyedPost POSTs body to path through h under an Idempotency-Key, as
// bearer when it is set. It touches no testing.T, so it may run in a
// goroutine of its own.
func keyedPost(h http.Handler, path, key, bearer string, body []byte) keyedReply {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set(core.IdempotencyKeyHeader, key)
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	h.ServeHTTP(rec, req)
	return keyedReply{rec.Code, rec.Header().Get(core.IdempotencyReplayedHeader) == "true", rec.Body.Bytes()}
}

// expectKeyed fails unless a keyed request answered status, replayed or
// executed as replayed says.
func expectKeyed(t *testing.T, what string, got keyedReply, status int, replayed bool) {
	t.Helper()
	if got.status != status || got.replayed != replayed {
		t.Fatalf("%s: status %d replayed %v, want %d replayed %v: %s", what, got.status, got.replayed, status, replayed, got.body)
	}
}

// noopPublishBody is a POST /api/v2/servables body for the noop document.
func noopPublishBody(t *testing.T) []byte {
	t.Helper()
	doc, err := json.Marshal(servable.NoopPackage().Doc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"document": json.RawMessage(doc)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// publishedID reads the servable ID out of a publish response.
func publishedID(t *testing.T, r keyedReply) string {
	t.Helper()
	var env struct {
		Data struct {
			ID string `json:"id"`
		} `json:"data"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil || env.Data.ID == "" {
		t.Fatalf("publish response without an id (%v): %s", err, r.body)
	}
	return env.Data.ID
}

// ghostRun is a run route no servable answers: each execution is a
// quick 404, which is definitive and therefore replayable.
const ghostRun = "/api/v2/servables/ghost/model/run"

var ghostBody = []byte(`{"input":"x"}`)

// TestIdempotencyKeyScopedPerIdentity: two identities sending the same
// key to the same route get two executions — each publishes its own
// servable — and each replays only its own.
func TestIdempotencyKeyScopedPerIdentity(t *testing.T) {
	ms := newAuthService(t)
	h := ms.Handler()
	body := noopPublishBody(t)
	ids := map[string]string{}
	tokens := map[string]string{}
	for _, user := range []string{"alice", "bob"} {
		if _, err := ms.RegisterUser("", user, "pw", "", "", ""); err != nil {
			t.Fatal(err)
		}
		login, err := ms.Login("", user, "pw")
		if err != nil {
			t.Fatal(err)
		}
		tokens[user] = login.AccessToken
		r := keyedPost(h, "/api/v2/servables", "shared-key", login.AccessToken, body)
		expectKeyed(t, user+"'s publish", r, http.StatusCreated, false)
		ids[user] = publishedID(t, r)
	}
	if ids["alice"] == ids["bob"] {
		t.Fatalf("both identities got %s: one execution", ids["alice"])
	}
	for user, tok := range tokens {
		r := keyedPost(h, "/api/v2/servables", "shared-key", tok, body)
		expectKeyed(t, user+"'s retry", r, http.StatusCreated, true)
		if got := publishedID(t, r); got != ids[user] {
			t.Fatalf("%s's retry replayed %s, want its own %s", user, got, ids[user])
		}
	}
}

// TestIdempotencyKeyScopedPerRoute: one identity sending the same key to
// run and to publish gets two executions.
func TestIdempotencyKeyScopedPerRoute(t *testing.T) {
	ms := core.New(core.Config{})
	defer ms.Close()
	h := ms.Handler()
	expectKeyed(t, "run", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, false)
	pub := keyedPost(h, "/api/v2/servables", "k", "", noopPublishBody(t))
	expectKeyed(t, "publish under the run's key", pub, http.StatusCreated, false)
	publishedID(t, pub)
	expectKeyed(t, "run retried", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, true)
}

// TestIdempotencyCapEvictsOldestFinished: at the cap, a new key's
// outcome pushes out the oldest finished one, and a key still executing
// is never evicted — it keeps absorbing duplicates.
func TestIdempotencyCapEvictsOldestFinished(t *testing.T) {
	ms, tmID := blackHoleTM(t)
	const capacity = 4
	ms.SetIdempotencyCap(capacity)
	h := ms.Handler()
	id := publishNoop(t, ms)
	runPath := "/api/v2/servables/" + id + "/run"
	runBody := []byte(`{"input":"x","no_cache":true,"no_memo":true}`)

	leader := make(chan keyedReply, 1)
	go func() { leader <- keyedPost(h, runPath, "in-flight", "", runBody) }()
	waitFor(t, 2*time.Second, func() bool { return ms.TMLoad()[tmID] == 1 })

	for i := 1; i <= capacity+1; i++ {
		expectKeyed(t, fmt.Sprintf("k%d", i), keyedPost(h, ghostRun, fmt.Sprintf("k%d", i), "", ghostBody), http.StatusNotFound, false)
	}
	expectKeyed(t, "newest key", keyedPost(h, ghostRun, fmt.Sprintf("k%d", capacity+1), "", ghostBody), http.StatusNotFound, true)
	expectKeyed(t, "oldest key", keyedPost(h, ghostRun, "k1", "", ghostBody), http.StatusNotFound, false)

	dup := make(chan keyedReply, 1)
	go func() { dup <- keyedPost(h, runPath, "in-flight", "", runBody) }()
	time.Sleep(50 * time.Millisecond) // the duplicate parks on the in-flight key
	if load := ms.TMLoad()[tmID]; load != 1 {
		t.Fatalf("the duplicate of an in-flight key dispatched: %d tasks at the site", load)
	}
	replyOnce(t, ms, tmID, "once")
	for name, ch := range map[string]chan keyedReply{"leader": leader, "duplicate": dup} {
		select {
		case r := <-ch:
			expectKeyed(t, name, r, http.StatusOK, name == "duplicate")
			if !bytes.Contains(r.body, []byte("once")) {
				t.Fatalf("%s: %s", name, r.body)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s never answered: the in-flight key was evicted", name)
		}
	}
}

// TestIdempotencyExpiredKeyExecutesFresh: past the replay window a key
// executes again, and its new outcome is replayed.
func TestIdempotencyExpiredKeyExecutesFresh(t *testing.T) {
	ms := core.New(core.Config{})
	defer ms.Close()
	now := time.Now()
	ms.SetIdempotencyClock(func() time.Time { return now })
	h := ms.Handler()
	expectKeyed(t, "first", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, false)
	expectKeyed(t, "within the window", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, true)
	now = now.Add(10*time.Minute + time.Second)
	expectKeyed(t, "past the window", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, false)
	expectKeyed(t, "the fresh outcome", keyedPost(h, ghostRun, "k", "", ghostBody), http.StatusNotFound, true)
}

// BenchmarkIdempotentRunHTTP is a keyed run the result cache answers,
// under a new key every time, with the key table held at its cap of live
// keys: each request claims a key and its outcome pushes out the oldest.
func BenchmarkIdempotentRunHTTP(b *testing.B) {
	for _, live := range []int{10, 1000, 4096} {
		b.Run("live="+strconv.Itoa(live), func(b *testing.B) {
			ms, id := payloadStack(b, &recordingExecutor{})
			ms.SetIdempotencyCap(live)
			h := ms.Handler()
			path := "/api/v2/servables/" + id + "/run"
			body := []byte(`{"input":"hot"}`)
			runOnce(b, h, path, body, "miss")
			run := func(i int) {
				if r := keyedPost(h, path, strconv.Itoa(i), "", body); r.status != http.StatusOK || r.replayed || !strings.Contains(string(r.body), `"cache_hit":true`) {
					b.Fatalf("key %d: status %d replayed %v: %s", i, r.status, r.replayed, r.body)
				}
			}
			for i := range live {
				run(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(live + i)
			}
		})
	}
}

// TestIdempotencyKeyLengthBound: a key of 255 bytes is honored; one of
// 256 is refused with 400 before anything executes.
func TestIdempotencyKeyLengthBound(t *testing.T) {
	ms := core.New(core.Config{})
	defer ms.Close()
	h := ms.Handler()
	body := noopPublishBody(t)
	long := strings.Repeat("k", 256)
	r := keyedPost(h, "/api/v2/servables", long, "", body)
	expectKeyed(t, "a 256-byte key", r, http.StatusBadRequest, false)
	if !bytes.Contains(r.body, []byte(`"code":"bad_request"`)) {
		t.Fatalf("a 256-byte key: %s", r.body)
	}
	r = keyedPost(h, "/api/v2/servables", long[:255], "", body)
	expectKeyed(t, "a 255-byte key", r, http.StatusCreated, false)
	id := publishedID(t, r)
	expectKeyed(t, "its retry", keyedPost(h, "/api/v2/servables", long[:255], "", body), http.StatusCreated, true)
	doc, err := ms.Get(core.Anonymous, id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Version != 1 {
		t.Fatalf("version %d: the refused request published", doc.Version)
	}
}
