package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// WAL file layout inside Options.Dir:
//
//	checkpoint.log   last checkpoint: one record per durable fact, Seq 0
//	wal.log          record tail appended since that checkpoint
//
// Both files are the same frames, so recovery reads both with scan.
// Record framing, all little-endian:
//
//	[4B body length][4B CRC32-IEEE of body][body]
//	body = [8B seq][2B kind length][kind][data]
//
// The CRC covers the whole body, so a torn write (crash mid-append) or
// bit rot in the final record is detected on recovery and the tail is
// truncated at the last intact frame — at most the single in-flight
// mutation is lost, never an earlier one. The checkpoint is written to a
// temp file, fsynced and renamed whole, so a bad frame in it is
// corruption, not a torn write: it fails the boot instead.

const (
	walName        = "wal.log"
	checkpointName = "checkpoint.log"
	// gobCheckpointName is the checkpoint builds before the record
	// checkpoint wrote. Recover refuses a directory that holds one.
	gobCheckpointName = "repository.gob"
	frameHeaderLen    = 8
	// maxRecordLen rejects absurd frame lengths during recovery scan —
	// a corrupt length field must not drive a gigabyte allocation.
	maxRecordLen = 1 << 30
)

// Options configures a WAL store.
type Options struct {
	// Dir holds the checkpoint and log (created if missing).
	Dir string
	// Sync fsyncs the log after every append (the durability setting;
	// off trades the last few records for append latency).
	Sync bool
	// CompactEvery triggers compaction once this many records sit in
	// the tail (default 4096; < 0 disables the record trigger).
	CompactEvery int
	// CompactBytes triggers compaction once the tail reaches this many
	// bytes (default 32 MiB; < 0 disables the byte trigger).
	CompactBytes int64
	// Logf receives recovery warnings (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 32 << 20
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// WAL is the durable store: an append-only record log compacted into
// checkpoints of the same records. Safe for concurrent use.
type WAL struct {
	opts Options

	// mu serializes every log/file operation. Checkpoint holds it for
	// the whole checkpoint write, so appends block (briefly) during
	// compaction — which is exactly what makes truncation safe: the
	// checkpoint provably contains every appended record.
	mu         sync.Mutex
	checkpoint func(w io.Writer) error
	f          *os.File
	seq        uint64
	recovered  bool
	closed     bool

	tailRecords int
	tailBytes   int64
	total       uint64
	compactions uint64
	lastCompact int64

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

// Open prepares a WAL store in opts.Dir. Call SetCheckpointer and then
// Recover before the first Append.
func Open(opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		opts:      opts,
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	w.wg.Add(1)
	go w.compactLoop()
	return w, nil
}

// SetCheckpointer registers the whole-state serializer: compaction calls
// it to write every durable fact to the new checkpoint, one WriteRecord
// per fact.
func (w *WAL) SetCheckpointer(fn func(wr io.Writer) error) {
	w.mu.Lock()
	w.checkpoint = fn
	w.mu.Unlock()
}

// Recover applies the checkpoint's records (when there is a checkpoint),
// then the log tail's, and truncates a torn final tail record. It changes
// nothing on disk before both files have been read — only then does it
// remove checkpoint temp files — and nothing at all when it refuses the
// directory. After a non-empty tail it compacts, so every boot starts
// from a fresh checkpoint and an empty tail. The restore parameter is not
// called — the checkpoint is records, applied like the tail — and stays
// only because benchmark/layers.go still passes one.
func (w *WAL) Recover(_ func(r io.Reader) error, apply func(rec Record) error) (RecoveryInfo, error) {
	var info RecoveryInfo
	w.mu.Lock()
	defer w.mu.Unlock()
	gobPath := filepath.Join(w.opts.Dir, gobCheckpointName)
	if _, err := os.Lstat(gobPath); err == nil {
		return info, fmt.Errorf("store: %s was written by an older build (a gob checkpoint); this build reads only checkpoint.log, see docs/OPERATIONS.md", gobPath)
	}
	cpPath := filepath.Join(w.opts.Dir, checkpointName)
	if cp, err := os.Open(cpPath); err == nil {
		good, _, torn, err := w.scan(cp, apply)
		cp.Close()
		if err == nil && torn {
			err = fmt.Errorf("damaged frame at offset %d (the file is written whole, so this is corruption, not a torn write)", good)
		}
		if err != nil {
			return info, fmt.Errorf("store: %s: %w", cpPath, err)
		}
		info.CheckpointLoaded = true
	} else if !os.IsNotExist(err) {
		return info, err
	}

	f, err := os.OpenFile(filepath.Join(w.opts.Dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return info, err
	}
	good, records, truncated, err := w.scan(f, apply)
	if err != nil {
		err = fmt.Errorf("store: %s: %w", walName, err)
	}
	// Both files are read and accepted: remove the temp files a crash
	// mid-checkpoint left. The rename never happened, so they hold nothing
	// the checkpoint and the tail lack.
	leftovers, _ := filepath.Glob(filepath.Join(w.opts.Dir, checkpointName+".tmp-*"))
	for i := 0; err == nil && i < len(leftovers); i++ {
		err = os.Remove(leftovers[i])
	}
	if err == nil && truncated {
		if err = f.Truncate(good); err != nil {
			err = fmt.Errorf("store: truncate torn tail: %w", err)
		} else {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return info, err
	}
	if truncated {
		w.opts.Logf("store: dropped torn record at log offset %d (the in-flight mutation when the last run died)", good)
	}
	w.f = f
	w.recovered = true
	w.tailRecords = records
	w.tailBytes = good
	w.total = w.seq
	info.Replayed = records
	info.Truncated = truncated
	// Fold a non-empty tail into a fresh checkpoint now, while the
	// replayed state is known-consistent — recovery after the NEXT
	// crash then starts from here instead of re-replaying.
	if records > 0 && w.checkpoint != nil {
		if err := w.checkpointLocked(); err != nil {
			return info, fmt.Errorf("store: post-recovery compaction: %w", err)
		}
	}
	return info, nil
}

// scan replays intact frames through apply and reports the offset of
// the last intact frame end, the record count, and whether a
// torn/corrupt frame was found. Caller holds w.mu.
func (w *WAL) scan(f *os.File, apply func(rec Record) error) (good int64, records int, truncated bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, false, err
	}
	r := bufio.NewReader(f)
	var header [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				return good, records, false, nil
			}
			// Short header: torn mid-frame.
			return good, records, true, nil
		}
		bodyLen := binary.LittleEndian.Uint32(header[0:4])
		wantCRC := binary.LittleEndian.Uint32(header[4:8])
		// A length past what the file holds is torn: it sizes no allocation.
		if bodyLen < 10 || bodyLen > maxRecordLen || int64(bodyLen) > fi.Size()-good-frameHeaderLen {
			return good, records, true, nil
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return good, records, true, nil
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return good, records, true, nil
		}
		seq := binary.LittleEndian.Uint64(body[0:8])
		kindLen := int(binary.LittleEndian.Uint16(body[8:10]))
		if 10+kindLen > len(body) {
			return good, records, true, nil
		}
		rec := Record{
			Seq:  seq,
			Kind: string(body[10 : 10+kindLen]),
			Data: body[10+kindLen:],
		}
		if err := apply(rec); err != nil {
			return good, records, false, fmt.Errorf("replay record %d (%s) at offset %d: %w", seq, rec.Kind, good, err)
		}
		if seq > w.seq {
			w.seq = seq
		}
		good += int64(frameHeaderLen) + int64(bodyLen)
		records++
	}
}

// WriteRecord writes rec to wr as one frame. It is the only frame
// writer: Append logs through it, and a checkpointer writes each of its
// records through it with Seq 0.
func WriteRecord(wr io.Writer, rec Record) error {
	frame := make([]byte, frameLen(rec))
	body := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint64(body[0:8], rec.Seq)
	binary.LittleEndian.PutUint16(body[8:10], uint16(len(rec.Kind)))
	copy(body[10:], rec.Kind)
	copy(body[10+len(rec.Kind):], rec.Data)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	_, err := wr.Write(frame)
	return err
}

// frameLen is the size of rec's frame on disk.
func frameLen(rec Record) int { return frameHeaderLen + 10 + len(rec.Kind) + len(rec.Data) }

// Append durably logs one record. The store assigns rec.Seq.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: append on closed WAL")
	}
	if !w.recovered {
		return errors.New("store: append before Recover")
	}
	w.seq++
	rec.Seq = w.seq
	if err := WriteRecord(w.f, rec); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: append sync: %w", err)
		}
	}
	w.tailRecords++
	w.tailBytes += int64(frameLen(rec))
	w.total++
	if (w.opts.CompactEvery > 0 && w.tailRecords >= w.opts.CompactEvery) ||
		(w.opts.CompactBytes > 0 && w.tailBytes >= w.opts.CompactBytes) {
		select {
		case w.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// compactLoop runs threshold-triggered compactions in the background so
// the append that crossed the threshold never pays the checkpoint.
func (w *WAL) compactLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case <-w.compactCh:
			if err := w.Checkpoint(); err != nil {
				w.opts.Logf("store: background compaction failed: %v", err)
			}
		}
	}
}

// Checkpoint writes a fresh checkpoint through the registered
// checkpointer and truncates the log. Appends block for the duration,
// which is what makes the truncation safe: the checkpoint state
// provably includes every record in the log being dropped.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return errors.New("store: checkpoint on closed WAL")
	case !w.recovered:
		return errors.New("store: checkpoint before Recover")
	case w.checkpoint == nil:
		return errors.New("store: no checkpointer registered")
	}
	return w.checkpointLocked()
}

// checkpointLocked is Checkpoint with w.mu held.
func (w *WAL) checkpointLocked() error {
	tmp, err := os.CreateTemp(w.opts.Dir, checkpointName+".tmp-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	werr := w.checkpoint(bw)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return fmt.Errorf("store: checkpoint write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(w.opts.Dir, checkpointName)); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck
		return err
	}
	if err := syncDir(w.opts.Dir); err != nil {
		return err
	}
	// The checkpoint is durable; the logged records it contains are now
	// redundant. Truncate and rewind.
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: log truncate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.tailRecords = 0
	w.tailBytes = 0
	w.compactions++
	w.lastCompact = time.Now().UnixNano()
	return nil
}

// Stats snapshots the counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Records:       w.total,
		Bytes:         uint64(w.tailBytes),
		Compactions:   w.compactions,
		LastCompactNS: w.lastCompact,
	}
}

// Close flushes and closes the log. No final checkpoint is taken —
// callers that want a clean shutdown call Checkpoint first.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable — without it a crash after rename can lose the rename.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
