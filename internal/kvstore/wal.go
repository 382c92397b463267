package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// WAL op codes. Each carries a commit timestamp so replay rebuilds
// version chains and resumes the clock; 1 and 2 were the pre-MVCC
// frames without one, which decodeWALRecord now rejects. New fields
// need new op codes because decodeWALRecord rejects trailing bytes —
// that strictness is what keeps old binaries from silently misreading
// new frames. A drop frame (Store.Drop) carries no version and no
// fields: replay removes the key, chain and all.
const (
	walPutTS    byte = 3
	walDeleteTS byte = 4
	walDrop     byte = 5
)

// ErrCorruptWAL reports a WAL frame whose checksum holds but whose
// payload does not decode: not a torn tail, so Open refuses the log
// and leaves it as it is rather than truncating committed frames away.
var ErrCorruptWAL = errors.New("kvstore: corrupt WAL")

// walRecord is one logged mutation. Put records carry the full
// post-image (version and image) so replay is a blind apply; delete
// records carry the key and (in TS form) the tombstone's version and
// commit ts, drop records the key and the drop's ts. The payload's
// field section is the stored version's image, appended as it stands;
// the decoder hands it back canonical (see decodeWALRecord).
type walRecord struct {
	Op       byte
	Table    string
	Key      string
	Version  uint64
	CommitTS int64
	Image    []byte
}

// walFrameOf is the frame that logs one stored version of table/key.
func walFrameOf(table, key string, v *VersionedRecord) walRecord {
	op := walPutTS
	if v.deleted {
		op = walDeleteTS
	}
	return walRecord{Op: op, Table: table, Key: key, Version: v.Version, CommitTS: v.CommitTS, Image: v.image}
}

// wal is an append-only redo log with per-record CRC32 checksums.
// Frame layout:
//
//	[4-byte length][4-byte CRC32(payload)][payload]
//
// Payload layout (all integers little-endian, strings/bytes
// length-prefixed with uvarint):
//
//	op(1) table key version commitTS nfields {fieldName fieldValue}*
//
// where the tail from nfields on is one field section (image.go).
//
// A torn final frame (crash mid-append) is detected by length or CRC
// mismatch, or is an empty frame (a zero-filled tail), and is
// truncated away on open, so a crashed store reopens to its last
// complete mutation.
//
// With a group-commit window (gcInterval > 0) a background syncer
// flushes and fsyncs the log once per window. Appends then never sync
// inline; when SyncWrites is also set, the caller waits for the group
// sync that covers its frame instead — one fsync amortized over every
// commit of the window, the classic group-commit trade.
type wal struct {
	syncOn bool

	mu      sync.Mutex // guards f and w against the group-commit syncer
	f       *os.File
	w       *bufio.Writer
	replayN int64 // bytes of valid replayed prefix

	// Group-commit state. appendSeq counts buffered frames; syncSeq is
	// the highest frame covered by a completed fsync. syncErr is sticky:
	// once a group sync fails every waiter gets the error.
	gcInterval time.Duration
	gcMu       sync.Mutex
	gcCond     *sync.Cond
	appendSeq  uint64
	syncSeq    uint64
	syncErr    error
	gcStop     chan struct{}
	gcDone     chan struct{}

	// metrics instruments fsync latency and group-commit occupancy;
	// nil when the store is uninstrumented. Set before the wal is
	// shared (Store.instrument / compact's swap), read-only after.
	metrics *walMetrics
}

func openWAL(path string, syncWrites bool, groupCommit time.Duration) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: opening WAL: %w", err)
	}
	return &wal{f: f, syncOn: syncWrites, gcInterval: groupCommit}, nil
}

// replay streams every complete record to fn, then positions the file
// for appending, truncating any torn tail, and starts the group-commit
// syncer when one is configured. A checksummed frame that does not
// decode fails with ErrCorruptWAL before anything is truncated.
func (w *wal) replay(fn func(walRecord) error) error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(w.f)
	var offset int64
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn or clean end
			}
			return err
		}
		length := binary.LittleEndian.Uint32(header[:4])
		sum := binary.LittleEndian.Uint32(header[4:])
		if length > 1<<30 {
			break // corrupt length; treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			return err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record; stop at last good prefix
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			if length == 0 {
				break // a zero-filled tail left by a crash
			}
			return fmt.Errorf("%w: frame at offset %d: %v", ErrCorruptWAL, offset, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
		offset += int64(8 + len(payload))
	}
	w.replayN = offset
	if err := w.f.Truncate(offset); err != nil {
		return err
	}
	if _, err := w.f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	w.w = bufio.NewWriter(w.f)
	w.startSyncer()
	return nil
}

// seekEnd positions the WAL for appending at its current end without
// replaying (used after compaction swaps a fresh snapshot in).
func (w *wal) seekEnd() error {
	off, err := w.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	w.replayN = off
	w.w = bufio.NewWriter(w.f)
	w.startSyncer()
	return nil
}

// walBufPool recycles WAL encode buffers across appends: the record is
// encoded into a pooled scratch buffer that is fully consumed (written
// to the bufio writer) before the append returns, so the hot write
// path allocates no per-record encode buffer at steady state. Buffers
// grow to fit the largest record they ever carry and are reused at
// that capacity.
var walBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// append buffers one frame. It returns a non-zero sequence number when
// the caller must wait for durability via waitDurable — that is, when
// both SyncWrites and a group-commit window are configured. Without a
// window, SyncWrites syncs inline exactly as before.
func (w *wal) append(rec walRecord) (uint64, error) {
	bp := walBufPool.Get().(*[]byte)
	payload := appendWALRecord((*bp)[:0], rec)
	*bp = payload[:0] // keep the (possibly grown) buffer for reuse
	defer walBufPool.Put(bp)
	var header [8]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))
	w.mu.Lock()
	if _, err := w.w.Write(header[:]); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("kvstore: WAL append: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("kvstore: WAL append: %w", err)
	}
	w.mu.Unlock()
	if w.gcInterval > 0 {
		// The frame is buffered before the sequence is published, so a
		// group sync that observes seq N has frames 1..N in the buffer.
		w.gcMu.Lock()
		w.appendSeq++
		seq := w.appendSeq
		w.gcMu.Unlock()
		if w.syncOn {
			return seq, nil
		}
		return 0, nil
	}
	if w.syncOn {
		return 0, w.sync()
	}
	return 0, nil
}

// waitDurable blocks until the group-commit syncer has fsynced the
// frame with the given sequence number (or a sync failed).
func (w *wal) waitDurable(seq uint64) error {
	w.gcMu.Lock()
	defer w.gcMu.Unlock()
	for w.syncSeq < seq && w.syncErr == nil {
		w.gcCond.Wait()
	}
	return w.syncErr
}

// startSyncer launches the group-commit goroutine when a window is
// configured. Called once per open/seekEnd, before any appends.
func (w *wal) startSyncer() {
	if w.gcInterval <= 0 {
		return
	}
	w.gcCond = sync.NewCond(&w.gcMu)
	w.gcStop = make(chan struct{})
	w.gcDone = make(chan struct{})
	go w.syncLoop()
}

func (w *wal) syncLoop() {
	defer close(w.gcDone)
	tick := time.NewTicker(w.gcInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			w.groupSync()
		case <-w.gcStop:
			w.groupSync() // cover appends still waiting at close
			return
		}
	}
}

// groupSync fsyncs everything appended so far and wakes the waiters it
// covered.
func (w *wal) groupSync() {
	w.gcMu.Lock()
	target := w.appendSeq
	covered := target - w.syncSeq
	if target == w.syncSeq || w.syncErr != nil {
		w.gcMu.Unlock()
		return
	}
	w.gcMu.Unlock()
	w.mu.Lock()
	err := w.flushAndSync()
	w.mu.Unlock()
	w.gcMu.Lock()
	if err != nil {
		w.syncErr = err
	} else {
		w.syncSeq = target
	}
	w.gcCond.Broadcast()
	w.gcMu.Unlock()
	if err == nil && w.metrics != nil {
		w.metrics.occupancy.Observe(float64(covered))
	}
}

func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushAndSync()
}

// flushAndSync requires w.mu.
func (w *wal) flushAndSync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.metrics == nil {
		return w.f.Sync()
	}
	start := time.Now()
	err := w.f.Sync()
	if err == nil {
		w.metrics.fsync.Observe(time.Since(start).Seconds())
	}
	return err
}

// size reports the flushed log size in bytes.
func (w *wal) size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return 0, err
	}
	st, err := w.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (w *wal) close() error {
	if w.gcDone != nil {
		close(w.gcStop)
		<-w.gcDone
		w.gcDone = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w != nil {
		if err := w.w.Flush(); err != nil {
			w.f.Close()
			return err
		}
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func encodeWALRecord(rec walRecord) []byte {
	return appendWALRecord(make([]byte, 0, 64+len(rec.Table)+len(rec.Key)), rec)
}

// appendWALRecord encodes rec onto buf (the append-style core shared
// by the pooled hot path and encodeWALRecord).
func appendWALRecord(buf []byte, rec walRecord) []byte {
	buf = append(buf, rec.Op)
	buf = appendString(buf, rec.Table)
	buf = appendString(buf, rec.Key)
	buf = binary.AppendUvarint(buf, rec.Version)
	buf = binary.AppendUvarint(buf, uint64(rec.CommitTS))
	if rec.Image == nil {
		return append(buf, 0) // no fields: every delete and drop frame
	}
	return append(buf, rec.Image...)
}

// decodeWALRecord parses one payload. A canonical field section is
// handed back as the record's Image, aliasing payload, so the caller
// must not reuse it; any other — a merge-update an older binary logged
// from its map — is re-encoded in name order. A section of no fields
// (every delete and drop frame) leaves Image nil.
func decodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 1 {
		return rec, errors.New("kvstore: empty WAL payload")
	}
	rec.Op = payload[0]
	if rec.Op < walPutTS || rec.Op > walDrop {
		return rec, fmt.Errorf("kvstore: unsupported WAL op code %d", rec.Op)
	}
	rest := payload[1:]
	var err error
	if rec.Table, rest, err = readString(rest); err != nil {
		return rec, err
	}
	if rec.Key, rest, err = readString(rest); err != nil {
		return rec, err
	}
	var n int
	rec.Version, n = binary.Uvarint(rest)
	if n <= 0 {
		return rec, errors.New("kvstore: bad WAL version")
	}
	rest = rest[n:]
	ts, n := binary.Uvarint(rest)
	if n <= 0 {
		return rec, errors.New("kvstore: bad WAL commit ts")
	}
	rec.CommitTS = int64(ts)
	rest = rest[n:]
	if len(rest) == 1 && rest[0] == 0 {
		return rec, nil
	}
	canonical, err := CheckFields(rest)
	switch {
	case err != nil:
		return rec, err
	case canonical:
		rec.Image = rest
		return rec, nil
	}
	rec.Image, err = canonicalImage(rest)
	return rec, err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readString(buf []byte) (string, []byte, error) {
	b, rest, err := readBytes(buf)
	return string(b), rest, err
}

var errTruncated = fmt.Errorf("%w: truncated", ErrBadFields)

func readBytes(buf []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return nil, nil, errTruncated
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}
