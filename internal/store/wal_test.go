package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// kvStore is the test harness: a toy state machine whose mutations are
// "set k v" records and whose checkpoint is one such record per key.
type kvStore struct {
	mu sync.Mutex
	m  map[string]string
}

func newKV() *kvStore { return &kvStore{m: make(map[string]string)} }

func (k *kvStore) set(s *WAL, key, val string) error {
	return s.Commit(Record{Kind: "set", Data: []byte(key + "=" + val)}, func() {
		k.mu.Lock()
		k.m[key] = val
		k.mu.Unlock()
	})
}

func (k *kvStore) checkpoint(w io.Writer) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	keys := make([]string, 0, len(k.m))
	for key := range k.m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if err := WriteRecord(w, Record{Kind: "set", Data: []byte(key + "=" + k.m[key])}); err != nil {
			return err
		}
	}
	return nil
}

func (k *kvStore) apply(rec Record) error {
	if rec.Kind != "set" {
		return fmt.Errorf("unknown kind %q", rec.Kind)
	}
	for i := 0; i < len(rec.Data); i++ {
		if rec.Data[i] == '=' {
			k.mu.Lock()
			k.m[string(rec.Data[:i])] = string(rec.Data[i+1:])
			k.mu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("bad record %q", rec.Data)
}

func (k *kvStore) snapshot() map[string]string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[string]string, len(k.m))
	for key, val := range k.m {
		out[key] = val
	}
	return out
}

func openWAL(t testing.TB, dir string, kv *kvStore, opts Options) (*WAL, RecoveryInfo) {
	t.Helper()
	opts.Dir = dir
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w.SetCheckpointer(kv.checkpoint)
	info, err := w.Recover(nil, kv.apply)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return w, info
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, info := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	if info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("fresh dir: info = %+v", info)
	}
	for i := 0; i < 50; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	want := kv.snapshot()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	defer w2.Close()
	if info.CheckpointLoaded {
		// Post-recovery compaction wrote one; either way state matches.
		t.Logf("checkpoint loaded on second boot")
	}
	if got := kv2.snapshot(); len(got) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(want))
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("recovered[%q] = %q, want %q", k, got[k], v)
			}
		}
	}
	if info.Replayed != 50 {
		t.Fatalf("Replayed = %d, want 50", info.Replayed)
	}
}

// TestWALTornTail cuts the log mid-frame and checks recovery keeps every
// earlier record, drops exactly the torn one, and physically truncates.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 10; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the final record: chop 3 bytes off the log.
	logPath := filepath.Join(dir, walName)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	defer w2.Close()
	if !info.Truncated {
		t.Fatal("expected Truncated after torn tail")
	}
	if info.Replayed != 9 {
		t.Fatalf("Replayed = %d, want 9 (k9 was in flight)", info.Replayed)
	}
	got := kv2.snapshot()
	if _, ok := got["k9"]; ok {
		t.Fatal("torn record k9 survived recovery")
	}
	for i := 0; i < 9; i++ {
		if got[fmt.Sprintf("k%d", i)] != "v" {
			t.Fatalf("k%d lost", i)
		}
	}
}

// TestWALCorruptTail flips a byte inside the last record's body: the CRC
// must reject it and recovery must truncate from there.
func TestWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 5; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	logPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	defer w2.Close()
	if !info.Truncated || info.Replayed != 4 {
		t.Fatalf("info = %+v, want Truncated with 4 replayed", info)
	}
}

// TestWALCompaction checks the record-count trigger: after crossing
// CompactEvery the background compactor folds the tail into a
// checkpoint, stats report it, and recovery needs no replay.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: 8, CompactBytes: -1})
	for i := 0; i < 32; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	// The compactor is async; force a final deterministic checkpoint.
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st := w.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if st.Records != 32 {
		t.Fatalf("Records = %d, want 32 (lifetime count survives compaction)", st.Records)
	}
	if st.Bytes != 0 {
		t.Fatalf("Bytes = %d, want 0 after checkpoint", st.Bytes)
	}
	if st.LastCompactNS == 0 {
		t.Fatal("LastCompactNS unset")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: 8, CompactBytes: -1})
	defer w2.Close()
	if !info.CheckpointLoaded {
		t.Fatal("checkpoint not loaded")
	}
	if info.Replayed != 0 {
		t.Fatalf("Replayed = %d, want 0 (log was truncated at checkpoint)", info.Replayed)
	}
	if len(kv2.snapshot()) != 32 {
		t.Fatalf("recovered %d keys, want 32", len(kv2.snapshot()))
	}
}

// TestWALRecoveryCompacts: a boot that replays a non-empty tail
// immediately compacts so the next boot starts clean.
func TestWALRecoveryCompacts(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 4; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	if info.Replayed != 4 {
		t.Fatalf("Replayed = %d, want 4", info.Replayed)
	}
	if w2.Stats().Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1 (post-recovery fold)", w2.Stats().Compactions)
	}
	w2.Close()

	kv3 := newKV()
	w3, info := openWAL(t, dir, kv3, Options{CompactEvery: -1, CompactBytes: -1})
	defer w3.Close()
	if !info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("third boot info = %+v, want checkpoint + empty tail", info)
	}
}

// TestRecoverRemovesCheckpointTempFiles plants the temp file a crash in
// the middle of Checkpoint leaves behind: Recover deletes it before it
// reads anything, and the state is what the checkpoint and tail hold.
func TestRecoverRemovesCheckpointTempFiles(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 3; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := kv.set(w, "k3", "v"); err != nil {
		t.Fatal(err)
	}
	want := kv.snapshot()
	w.Close()
	leftover := filepath.Join(dir, checkpointName+".tmp-123456")
	if err := os.WriteFile(leftover, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	kv2 := newKV()
	w2, info := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	defer w2.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Recover: %v", err)
	}
	if !info.CheckpointLoaded || info.Replayed != 1 {
		t.Fatalf("info = %+v, want the checkpoint and 1 tail record", info)
	}
	if got := kv2.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestWALLatchesWriteError fails one commit by swapping the log's handle
// for a read-only one on the same file, then puts the good handle back.
// The failed commit must not apply, and the next Append and Checkpoint
// must still fail — else a later record would land behind a damaged
// frame, where recovery's truncation drops it. Recovery then keeps every
// record acknowledged before the failure.
func TestWALLatchesWriteError(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 3; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	want := kv.snapshot()
	w.SetCheckpointer(kv.checkpoint)
	ro, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w.mu.Lock()
	good := w.f
	w.f = ro
	w.mu.Unlock()
	if err := kv.set(w, "lost", "v"); err == nil {
		t.Fatal("a commit to a read-only log succeeded")
	}
	w.mu.Lock()
	w.f = good
	w.mu.Unlock()
	if got := kv.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("a failed commit applied: %v", got)
	}
	if err := w.Append(Record{Kind: "set", Data: []byte("after=v")}); err == nil {
		t.Fatal("an append after a failed write succeeded")
	}
	if err := w.Checkpoint(); err == nil {
		t.Fatal("a checkpoint after a failed write succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err reports no latched error")
	}
	w.Close()

	kv2 := newKV()
	w2, _ := openWAL(t, dir, kv2, Options{CompactEvery: -1, CompactBytes: -1})
	defer w2.Close()
	if got := kv2.snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestWALAppendBeforeRecover(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Kind: "set", Data: []byte("a=b")}); err == nil {
		t.Fatal("Append before Recover must error")
	}
}

// TestWALConcurrentAppend exercises append+checkpoint+stats under
// concurrency (meaningful under -race).
func TestWALConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	kv := newKV()
	w, _ := openWAL(t, dir, kv, Options{CompactEvery: 16, CompactBytes: -1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := kv.set(w, fmt.Sprintf("g%d-k%d", g, i), "v"); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if i%20 == 0 {
					w.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	kv2 := newKV()
	w2, _ := openWAL(t, dir, kv2, Options{})
	defer w2.Close()
	if got := len(kv2.snapshot()); got != 200 {
		t.Fatalf("recovered %d keys, want 200", got)
	}
}

// intactFrames reads the frame layout by hand: the records of the intact
// frames before the first bad one, and the offset where that one starts.
func intactFrames(data []byte) (recs []Record, good int) {
	for {
		rest := data[good:]
		if len(rest) < frameHeaderLen {
			return recs, good
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n < 10 || n > len(rest)-frameHeaderLen {
			return recs, good
		}
		body := rest[frameHeaderLen : frameHeaderLen+n]
		kindLen := int(binary.LittleEndian.Uint16(body[8:10]))
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[4:8]) || 10+kindLen > n {
			return recs, good
		}
		recs = append(recs, Record{Seq: binary.LittleEndian.Uint64(body), Kind: string(body[10 : 10+kindLen]), Data: body[10+kindLen:]})
		good += frameHeaderLen + n
	}
}

// FuzzWALScan recovers from arbitrary bytes as wal.log. Recover must not
// panic or allocate for a length the file does not hold, must apply the
// intact frames before the first bad one and nothing else, in order,
// must truncate the file there, and must replay the same records from
// the truncated file on the next boot. The same bytes as checkpoint.log
// boot cleanly exactly when every frame is intact, fail the boot
// otherwise, and are never modified.
func FuzzWALScan(f *testing.F) {
	kv := newKV()
	dir := f.TempDir()
	w, _ := openWAL(f, dir, kv, Options{CompactEvery: -1, CompactBytes: -1})
	for i := 0; i < 3; i++ {
		if err := kv.set(w, fmt.Sprintf("k%d", i), "v"); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	corrupt := bytes.Clone(valid)
	corrupt[len(corrupt)/2] ^= 1
	huge := binary.LittleEndian.AppendUint32(nil, maxRecordLen)
	for _, seed := range [][]byte{valid, valid[:len(valid)-3], corrupt, huge, append(huge, 0, 0, 0, 0), nil} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, good := intactFrames(data)
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for boot := 0; boot < 2; boot++ {
			var got []Record
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			w, err := Open(Options{Dir: dir, CompactEvery: -1, CompactBytes: -1, Logf: func(string, ...any) {}})
			if err != nil {
				t.Fatal(err)
			}
			info, err := w.Recover(nil, func(rec Record) error {
				got = append(got, Record{Seq: rec.Seq, Kind: rec.Kind, Data: bytes.Clone(rec.Data)})
				return nil
			})
			runtime.ReadMemStats(&after)
			w.Close()
			if err != nil {
				t.Fatalf("boot %d: %v", boot, err)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+4*uint64(len(data)) {
				t.Fatalf("boot %d: recovering %d bytes allocated %d", boot, len(data), grown)
			}
			if len(got) != len(want) {
				t.Fatalf("boot %d: applied %d records, want %d", boot, len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("boot %d: record %d is %+v, want %+v", boot, i, got[i], want[i])
				}
			}
			if wantCut := boot == 0 && good != len(data); info.Truncated != wantCut || info.Replayed != len(want) {
				t.Fatalf("boot %d: info %+v, want Truncated=%t Replayed=%d", boot, info, wantCut, len(want))
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
				t.Fatalf("boot %d: log is %v bytes (%v), want cut at %d", boot, fi.Size(), err, good)
			}
		}

		cdir := t.TempDir()
		cpath := filepath.Join(cdir, checkpointName)
		if err := os.WriteFile(cpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := Open(Options{Dir: cdir, CompactEvery: -1, CompactBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		info, err := w.Recover(nil, func(Record) error { applied++; return nil })
		runtime.ReadMemStats(&after)
		w.Close()
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20+4*uint64(len(data)) {
			t.Fatalf("checkpoint: recovering %d bytes allocated %d", len(data), grown)
		}
		switch intact := good == len(data); {
		case intact && err != nil:
			t.Fatalf("checkpoint of intact frames refused: %v", err)
		case intact && (!info.CheckpointLoaded || applied != len(want)):
			t.Fatalf("checkpoint: info %+v, applied %d, want %d", info, applied, len(want))
		case !intact && (err == nil || !strings.Contains(err.Error(), checkpointName)):
			t.Fatalf("checkpoint with a bad frame at %d: err = %v", good, err)
		}
		if got, err := os.ReadFile(cpath); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("checkpoint modified: %d bytes, was %d (%v)", len(got), len(data), err)
		}
	})
}
