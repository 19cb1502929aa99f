// Package store is the Management Service's durability seam: an
// append-only log of repository state transitions plus periodic
// whole-state checkpoints. The paper's hosted DLHub keeps this metadata
// in a managed database; the reproduction's single-node stand-in is a
// write-ahead log (wal.go). There is one record format on disk: the
// checkpoint is a file of the same CRC-framed records as the log, so
// recovery reads both with one scan and one apply function. A service
// configured with no WAL logs nothing, so tests and the bench testbed
// stay free of any I/O.
//
// Contract highlights:
//
//   - Commit is atomic per record (length+CRC32 framing): a crash mid
//     write loses at most that one record, never corrupts earlier ones.
//     The caller's state change runs after the record is written (and
//     fsynced, with Sync), under the same lock as a checkpoint, so a
//     change is never visible before it is durable and a checkpoint
//     never falls between the two. A failed write is latched: the log
//     takes nothing more until a restart.
//   - Recover = apply the checkpoint's records, then the log tail's, in
//     file order. A torn or corrupt final tail record is truncated with a
//     warning — it is the in-flight mutation the crash interrupted. A bad
//     frame in the checkpoint is corruption and fails the boot.
//   - Compaction writes every durable fact as records into a fresh
//     checkpoint and truncates the log; the Commit that reaches a
//     record-count/byte threshold runs it before returning, and an
//     explicit Checkpoint call forces one. The store starts no
//     goroutine.
//
// Usage order: SetCheckpointer, Recover (exactly once, before any
// Commit), then Commit per mutation; Close on shutdown. Neither Commit
// nor Append may be called while holding locks the checkpointer
// acquires, nor from inside an apply function.
package store

// Record is one durable state transition. Kind names the mutation
// ("publish", "deploy", ...); Data is an opaque payload the appender
// knows how to re-apply. Seq is assigned by the store on append and
// strictly increases across compactions; checkpoint records carry 0.
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
	// CheckpointLoaded reports a checkpoint existed and was applied.
	CheckpointLoaded bool
	// Replayed counts log records re-applied after the checkpoint.
	Replayed int
	// Truncated reports a torn/corrupt tail record was dropped.
	Truncated bool
}
