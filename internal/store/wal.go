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
//	repository.gob   last checkpoint (the legacy snapshot format — a
//	                 directory written by snapshot-only mode is a valid
//	                 store with an empty log)
//	wal.log          record tail appended since that checkpoint
//
// Record framing, all little-endian:
//
//	[4B body length][4B CRC32-IEEE of body][body]
//	body = [8B seq][2B kind length][kind][data]
//
// The CRC covers the whole body, so a torn write (crash mid-append) or
// bit rot in the final record is detected on recovery and the tail is
// truncated at the last intact frame — at most the single in-flight
// mutation is lost, never an earlier one.

const (
	walName        = "wal.log"
	checkpointName = "repository.gob"
	frameHeaderLen = 8
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

// WAL is the durable Store: an append-only record log compacted into
// gob checkpoints. Safe for concurrent use.
type WAL struct {
	opts Options

	// cpMu guards the checkpointer registration only.
	cpMu       sync.Mutex
	checkpoint func(w io.Writer) error

	// mu serializes every log/file operation. Checkpoint holds it for
	// the whole checkpoint write, so appends block (briefly) during
	// compaction — which is exactly what makes truncation safe: the
	// checkpoint provably contains every appended record.
	mu        sync.Mutex
	f         *os.File
	seq       uint64
	recovered bool
	closed    bool

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

// SetCheckpointer registers the whole-state serializer.
func (w *WAL) SetCheckpointer(fn func(wr io.Writer) error) {
	w.cpMu.Lock()
	w.checkpoint = fn
	w.cpMu.Unlock()
}

func (w *WAL) checkpointer() func(wr io.Writer) error {
	w.cpMu.Lock()
	defer w.cpMu.Unlock()
	return w.checkpoint
}

// Recover restores the checkpoint (if any), replays the log tail, and
// truncates a torn final record. After a non-empty replay it compacts,
// so every boot starts from a fresh checkpoint and an empty tail.
func (w *WAL) Recover(restore func(r io.Reader) error, apply func(rec Record) error) (RecoveryInfo, error) {
	var info RecoveryInfo

	cp, err := os.Open(filepath.Join(w.opts.Dir, checkpointName))
	switch {
	case err == nil:
		rerr := restore(bufio.NewReader(cp))
		cp.Close()
		if rerr != nil {
			return info, fmt.Errorf("store: checkpoint restore: %w", rerr)
		}
		info.CheckpointLoaded = true
	case os.IsNotExist(err):
		// First boot (or legacy snapshot dir with no save yet).
	default:
		return info, err
	}

	w.mu.Lock()
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		w.mu.Unlock()
		return info, err
	}
	good, records, truncated, err := w.scan(f, apply)
	if err != nil {
		f.Close()
		w.mu.Unlock()
		return info, err
	}
	if truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			w.mu.Unlock()
			return info, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			w.mu.Unlock()
			return info, err
		}
		w.opts.Logf("store: dropped torn record at log offset %d (the in-flight mutation when the last run died)", good)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		w.mu.Unlock()
		return info, err
	}
	w.f = f
	w.recovered = true
	w.tailRecords = records
	w.tailBytes = good
	w.total = w.seq
	info.Replayed = records
	info.Truncated = truncated
	w.mu.Unlock()

	// Fold a non-empty tail into a fresh checkpoint now, while the
	// replayed state is known-consistent — recovery after the NEXT
	// crash then starts from here instead of re-replaying.
	if records > 0 && w.checkpointer() != nil {
		if err := w.Checkpoint(); err != nil {
			return info, fmt.Errorf("store: post-recovery compaction: %w", err)
		}
	}
	return info, nil
}

// scan replays intact frames through apply and reports the offset of
// the last intact frame end, the record count, and whether a
// torn/corrupt tail was found. Caller holds w.mu.
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
			return good, records, false, fmt.Errorf("store: replay record %d (%s): %w", seq, rec.Kind, err)
		}
		if seq > w.seq {
			w.seq = seq
		}
		good += int64(frameHeaderLen) + int64(bodyLen)
		records++
	}
}

// Append durably logs one record. The store assigns rec.Seq.
func (w *WAL) Append(rec Record) error {
	frame := make([]byte, frameHeaderLen+10+len(rec.Kind)+len(rec.Data))
	body := frame[frameHeaderLen:]
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: append on closed WAL")
	}
	if !w.recovered {
		return errors.New("store: append before Recover")
	}
	w.seq++
	binary.LittleEndian.PutUint64(body[0:8], w.seq)
	binary.LittleEndian.PutUint16(body[8:10], uint16(len(rec.Kind)))
	copy(body[10:], rec.Kind)
	copy(body[10+len(rec.Kind):], rec.Data)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))

	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: append sync: %w", err)
		}
	}
	w.tailRecords++
	w.tailBytes += int64(len(frame))
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
	fn := w.checkpointer()
	if fn == nil {
		return errors.New("store: no checkpointer registered")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: checkpoint on closed WAL")
	}
	if !w.recovered {
		return errors.New("store: checkpoint before Recover")
	}
	tmp, err := os.CreateTemp(w.opts.Dir, checkpointName+".tmp-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	werr := fn(bw)
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
