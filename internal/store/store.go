// Package store is the Management Service's durability seam: an
// append-only log of repository state transitions plus periodic
// whole-state checkpoints, behind a narrow interface the core service
// mutates through. The paper's hosted DLHub keeps this metadata in a
// managed database; the reproduction's single-node stand-in is a
// write-ahead log (wal.go) whose checkpoint format is the existing gob
// snapshot, so a directory written by the old snapshot-only mode is a
// valid (record-free) store. A service configured with no Store logs
// nothing, so tests and the bench testbed stay free of any I/O.
//
// Contract highlights:
//
//   - Append is atomic per record (length+CRC32 framing): a crash mid
//     write loses at most that one record, never corrupts earlier ones.
//   - Recover = restore the last checkpoint, then re-apply the record
//     tail in append order. A torn or corrupt final record is truncated
//     with a warning — it is the in-flight mutation the crash interrupted.
//   - Compaction folds the tail into a fresh checkpoint and truncates
//     the log; it is triggered by record-count/byte thresholds or an
//     explicit Checkpoint call. Replay handlers must therefore be
//     idempotent: a record may describe a mutation the checkpoint
//     already contains (the checkpoint ran between the in-memory
//     mutation and its append).
package store

import "io"

// Record is one durable state transition. Kind names the mutation
// ("publish", "deploy", ...); Data is an opaque payload the appender
// knows how to re-apply. Seq is assigned by the store on append and
// strictly increases across compactions.
type Record struct {
	Seq  uint64
	Kind string
	Data []byte
}

// Stats are the store's observability counters, shaped for the
// /api/v2/stats "wal" block.
type Stats struct {
	// Records appended over the store's lifetime (survives compaction).
	Records uint64 `json:"records"`
	// Bytes currently in the log tail (resets at compaction).
	Bytes uint64 `json:"bytes"`
	// Compactions completed (checkpoint written + log truncated).
	Compactions uint64 `json:"compactions"`
	// LastCompactNS is the wall-clock time of the last compaction,
	// Unix nanoseconds (0 = never).
	LastCompactNS int64 `json:"last_compact_ns"`
}

// RecoveryInfo reports what Recover found.
type RecoveryInfo struct {
	// CheckpointLoaded reports a checkpoint existed and was restored.
	CheckpointLoaded bool
	// Replayed counts log records re-applied after the checkpoint.
	Replayed int
	// Truncated reports a torn/corrupt tail record was dropped.
	Truncated bool
}

// Store is what the core repository's mutations flow through.
//
// Usage order: SetCheckpointer, Recover (exactly once, before any
// Append), then Append per mutation; Close on shutdown. Append must
// never be called while holding locks the checkpointer acquires —
// compaction runs the checkpointer while blocking appends.
type Store interface {
	// Append durably logs one state transition. The store assigns
	// rec.Seq. An error means the record may not survive a crash; the
	// in-memory mutation has already happened, so callers log loudly
	// rather than unwind.
	Append(rec Record) error
	// SetCheckpointer registers the whole-state serializer compaction
	// and Recover-time re-checkpointing call.
	SetCheckpointer(fn func(w io.Writer) error)
	// Recover restores the last checkpoint via restore (skipped when no
	// checkpoint exists), then re-applies the log tail via apply in
	// append order. Returns after the store is ready for Append.
	Recover(restore func(r io.Reader) error, apply func(rec Record) error) (RecoveryInfo, error)
	// Checkpoint forces a compaction: write a fresh checkpoint, then
	// truncate the log.
	Checkpoint() error
	// Stats snapshots the counters.
	Stats() Stats
	// Close flushes and releases resources. Append after Close errors.
	Close() error
}
