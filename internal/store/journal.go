// Package store is the durability layer of the characterization
// service: an append-only, checksummed record journal (write-ahead log)
// plus the typed run-lifecycle records internal/serve writes through it
// and replays at startup.
//
// Journal wire format — a flat sequence of frames, no file header:
//
//	┌───────────────┬──────────────────┬─────────────────┐
//	│ length  u32LE │ crc32c(payload)  │ payload (JSON)  │
//	│               │ u32LE            │ `length` bytes  │
//	└───────────────┴──────────────────┴─────────────────┘
//
// The frame encoding is canonical: re-encoding the payloads of a valid
// journal reproduces it byte for byte, which is what makes recovery
// deterministic and testable. Scanning stops at the first frame that is
// torn (truncated header or payload), has an implausible length prefix,
// or fails its CRC — everything before it is the valid prefix,
// everything from it onward is the invalid tail. OpenJournal quarantines
// such a tail into a sibling file and truncates the journal back to the
// valid prefix instead of refusing to open: a crash mid-write must never
// block the next boot.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	// frameHeaderBytes is the fixed per-record overhead: u32 payload
	// length plus u32 CRC32C of the payload.
	frameHeaderBytes = 8
	// MaxRecordBytes bounds a single record payload. A length prefix
	// beyond it is treated as corruption, which stops a flipped length
	// byte from making the scanner attempt a gigabyte allocation.
	MaxRecordBytes = 16 << 20
)

// castagnoli is the CRC32C polynomial table (the same checksum family
// used by leveldb/rocksdb record logs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy controls when the journal calls fsync after an append.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a record acknowledged is a
	// record on disk, at the cost of one fsync per state transition.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS page cache entirely.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf(`store: unknown fsync policy %q (valid: "always", "never")`, s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// WriteSyncer is the sink a journal appends to. *os.File satisfies it;
// tests inject failing implementations to model disk-full and torn
// writes.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// Journal is an append-only frame log. Appends are serialized by an
// internal mutex; a failed or short write poisons the journal (the tail
// beyond the failure point is unknowable), and every later append
// returns the original error until Rewrite rebuilds the file.
type Journal struct {
	mu       sync.Mutex
	w        WriteSyncer
	f        *os.File // nil when sink-backed (injected WriteSyncer)
	path     string
	policy   SyncPolicy
	size     int64
	unsynced int64
	err      error // sticky first write failure
}

// NewJournal wraps an arbitrary sink. Sink-backed journals cannot
// Rewrite (compaction needs the rename dance of a real file); they
// exist so tests can inject write failures.
func NewJournal(w WriteSyncer, policy SyncPolicy) *Journal {
	return &Journal{w: w, policy: policy}
}

// AppendFrame appends one framed payload to dst and returns the
// extended slice. It is the single encoder: scanning and re-framing a
// valid journal reproduces it exactly.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Append frames payload and writes it to the journal, fsyncing as the
// policy demands.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("store: refusing to append an empty record")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("store: record of %d bytes exceeds the %d byte limit", len(payload), MaxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return fmt.Errorf("store: journal poisoned by earlier write failure: %w", j.err)
	}
	frame := AppendFrame(nil, payload)
	n, err := j.w.Write(frame)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// A short or failed write may have left a torn frame on disk;
		// nothing appended after it would be recoverable, so fail fast.
		j.err = err
		return err
	}
	j.size += int64(len(frame))
	j.unsynced += int64(len(frame))
	if j.policy == SyncAlways {
		return j.syncLocked()
	}
	return nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.unsynced == 0 {
		return nil
	}
	if err := j.w.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	return nil
}

// Size is the journal's current byte length (valid prefix only).
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Err returns the sticky write failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes a file-backed journal. Sink-backed journals
// only sync.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	serr := j.syncLocked()
	if j.f != nil {
		if cerr := j.f.Close(); cerr != nil && serr == nil {
			serr = cerr
		}
		j.f = nil
	}
	return serr
}

// Tail describes the invalid suffix of a scanned journal: where the
// valid prefix ends, why scanning stopped, and how many bytes follow.
// The zero Tail means the journal was clean.
type Tail struct {
	// Offset is the byte position where the valid prefix ends.
	Offset int64
	// Reason is empty for a clean journal, otherwise one of
	// "truncated-header", "truncated-payload", "bad-length", "bad-crc".
	Reason string
	// Bytes is the length of the invalid suffix.
	Bytes int64
}

// Clean reports whether the scan consumed the whole input.
func (t Tail) Clean() bool { return t.Reason == "" }

// Recovered reports what OpenJournal found on disk.
type Recovered struct {
	// Payloads are the decoded record payloads of the valid prefix, in
	// append order.
	Payloads [][]byte
	// Tail describes the quarantined invalid suffix (zero when clean).
	Tail Tail
	// QuarantinePath is where the invalid tail bytes were moved, empty
	// when the journal was clean.
	QuarantinePath string
}

// OpenJournal opens (creating if absent) the journal at path, scans it,
// quarantines any torn or corrupt tail into path+".quarantine", and
// returns the journal positioned for appends after the valid prefix.
func OpenJournal(path string, policy SyncPolicy) (*Journal, Recovered, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, Recovered{}, fmt.Errorf("store: reading journal: %w", err)
	}
	payloads, tail := ScanFrames(raw)
	rec := Recovered{Payloads: payloads, Tail: tail}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("store: opening journal: %w", err)
	}
	if !tail.Clean() {
		// Preserve the bad bytes for post-mortems, then cut the journal
		// back to its valid prefix so appends resume on a frame boundary.
		qpath := path + ".quarantine"
		if err := os.WriteFile(qpath, raw[tail.Offset:], 0o644); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("store: quarantining journal tail: %w", err)
		}
		rec.QuarantinePath = qpath
		if err := f.Truncate(tail.Offset); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("store: truncating corrupt tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
	}
	if _, err := f.Seek(tail.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	j := &Journal{w: f, f: f, path: path, policy: policy, size: tail.Offset}
	return j, rec, nil
}

// Rewrite atomically replaces the journal's contents with the given
// payloads — the snapshot half of snapshot-and-truncate compaction. The
// new file is written beside the journal, fsynced, and renamed into
// place; a failure at any point leaves the original journal untouched
// and still open. A successful rewrite also clears a sticky write
// error: the poisoned tail is gone.
func (j *Journal) Rewrite(payloads [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("store: rewrite needs a file-backed journal")
	}
	var buf []byte
	for _, p := range payloads {
		if len(p) == 0 || len(p) > MaxRecordBytes {
			return fmt.Errorf("store: rewrite payload of %d bytes out of range", len(p))
		}
		buf = AppendFrame(buf, p)
	}
	tmp := j.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(j.path))
	// The old handle points at the unlinked inode; swap to the new file.
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f, j.w = nf, nf
	j.size = int64(len(buf))
	j.unsynced = 0
	j.err = nil
	return nil
}

// syncDir fsyncs a directory so a rename within it survives power loss.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	//lint:ignore erriswritten best-effort by contract: some filesystems reject directory fsync, and the rename itself is already durable on the ones that matter
	d.Sync()
	d.Close()
}
