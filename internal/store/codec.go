package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// This file exports the journal's frame encoding as a small standalone
// codec — FrameWriter for streaming appends, FrameScanner for streaming
// decodes — so other subsystems (the workload trace recorder in
// internal/workload, future per-shard journals) reuse the exact wire
// format instead of re-implementing length-prefix+CRC32C. The Journal
// itself and ScanFrames are built on the same primitives, keeping one
// source of truth for the format.

// FrameWriter streams framed payloads onto an io.Writer using the
// journal wire format (u32LE length, u32LE CRC32C, payload). It does
// not buffer and does not fsync: callers that need durability wrap the
// writer themselves or use Journal.
type FrameWriter struct {
	w io.Writer
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w}
}

// WriteFrame frames payload and writes it. Payload size limits match
// Journal.Append: empty payloads and payloads beyond MaxRecordBytes are
// rejected (a scanner would treat their length prefixes as corruption).
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("store: refusing to write an empty frame")
	}
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("store: frame of %d bytes exceeds the %d byte limit", len(payload), MaxRecordBytes)
	}
	frame := AppendFrame(nil, payload)
	n, err := fw.w.Write(frame)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	return err
}

// FrameScanner streams frames off an io.Reader, stopping at the first
// torn or corrupt frame exactly like ScanFrames: the consumed valid
// prefix is the sequence of frames Scan yielded, and Tail reports where
// and why scanning stopped.
type FrameScanner struct {
	r      io.Reader
	frame  []byte
	off    int64 // byte offset of the next unscanned frame
	reason string
	err    error
	done   bool
}

// NewFrameScanner wraps r.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{r: r}
}

// Scan advances to the next frame. It returns false at the end of the
// input or at the first invalid frame; Tail distinguishes the two.
func (s *FrameScanner) Scan() bool {
	if s.done {
		return false
	}
	var hdr [frameHeaderBytes]byte
	n, err := io.ReadFull(s.r, hdr[:])
	if err == io.EOF {
		s.done = true
		return false
	}
	if err == io.ErrUnexpectedEOF {
		return s.stop("truncated-header", nil)
	}
	if err != nil {
		return s.stop("", err)
	}
	_ = n
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length == 0 || length > MaxRecordBytes {
		return s.stop("bad-length", nil)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(s.r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return s.stop("truncated-payload", nil)
		}
		return s.stop("", err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return s.stop("bad-crc", nil)
	}
	s.frame = payload
	s.off += frameHeaderBytes + int64(length)
	return true
}

func (s *FrameScanner) stop(reason string, err error) bool {
	s.done = true
	s.reason = reason
	s.err = err
	return false
}

// Frame returns the payload of the last successful Scan. The slice is
// owned by the caller (it is not reused between Scans).
func (s *FrameScanner) Frame() []byte { return s.frame }

// Err returns the underlying read error, if scanning stopped on one
// (corruption is not an error here — it is reported via Tail, matching
// ScanFrames' lenient contract).
func (s *FrameScanner) Err() error { return s.err }

// Tail reports where the valid prefix ended and why. Bytes is zero —
// a streaming scanner cannot know the length of the unread suffix;
// byte-slice callers (ScanFrames) fill it in.
func (s *FrameScanner) Tail() Tail {
	return Tail{Offset: s.off, Reason: s.reason}
}

// ScanFrames decodes the valid frame prefix of b. Payloads are copies —
// they do not alias b. Scanning never panics and never reads past
// len(b), whatever the input (fuzzed in FuzzJournalDecode).
func ScanFrames(b []byte) ([][]byte, Tail) {
	sc := NewFrameScanner(bytes.NewReader(b))
	var payloads [][]byte
	for sc.Scan() {
		payloads = append(payloads, sc.Frame())
	}
	tail := sc.Tail()
	if !tail.Clean() {
		tail.Bytes = int64(len(b)) - tail.Offset
	}
	return payloads, tail
}
