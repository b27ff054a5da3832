package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// memSink is an injectable WriteSyncer that can fail: after failAfter
// bytes have been accepted, writes error (optionally after accepting a
// torn prefix of the frame), modeling a full disk.
type memSink struct {
	buf       bytes.Buffer
	failAfter int  // -1: never fail
	tear      bool // accept a partial write before failing
	syncs     int
	syncErr   error
}

var errDiskFull = errors.New("no space left on device")

func (m *memSink) Write(p []byte) (int, error) {
	if m.failAfter >= 0 && m.buf.Len()+len(p) > m.failAfter {
		if m.tear {
			room := m.failAfter - m.buf.Len()
			if room > 0 {
				m.buf.Write(p[:room])
				return room, errDiskFull
			}
		}
		return 0, errDiskFull
	}
	return m.buf.Write(p)
}

func (m *memSink) Sync() error {
	m.syncs++
	return m.syncErr
}

func openTempJournal(t *testing.T, policy SyncPolicy) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.wal")
	j, rec, err := OpenJournal(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Payloads) != 0 || !rec.Tail.Clean() {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := openTempJournal(t, SyncAlways)
	want := [][]byte{[]byte("alpha"), []byte(`{"type":"accepted"}`), bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	wantSize := int64(0)
	for _, p := range want {
		wantSize += frameHeaderBytes + int64(len(p))
	}
	if j.Size() != wantSize {
		t.Fatalf("Size = %d, want %d", j.Size(), wantSize)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !rec.Tail.Clean() {
		t.Fatalf("clean journal reported tail %+v", rec.Tail)
	}
	if len(rec.Payloads) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Payloads), len(want))
	}
	for i, p := range rec.Payloads {
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, p, want[i])
		}
	}
	// Appends after reopen extend the same log.
	if err := j2.Append([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	if j2.Size() != wantSize+frameHeaderBytes+int64(len("post-reopen")) {
		t.Fatalf("post-reopen Size = %d", j2.Size())
	}
}

func TestJournalRejectsEmptyAndOversizedRecords(t *testing.T) {
	j := NewJournal(&memSink{failAfter: -1}, SyncNever)
	if err := j.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := j.Err(); err != nil {
		t.Fatalf("rejected records poisoned the journal: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		sink := &memSink{failAfter: -1}
		j := NewJournal(sink, SyncAlways)
		for i := 0; i < 3; i++ {
			if err := j.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if sink.syncs != 3 {
			t.Fatalf("SyncAlways synced %d times for 3 appends", sink.syncs)
		}
	})
	t.Run("never", func(t *testing.T) {
		sink := &memSink{failAfter: -1}
		j := NewJournal(sink, SyncNever)
		for i := 0; i < 3; i++ {
			if err := j.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if sink.syncs != 0 {
			t.Fatalf("SyncNever synced %d times", sink.syncs)
		}
		// Explicit Sync still works.
		if err := j.Sync(); err != nil || sink.syncs != 1 {
			t.Fatalf("explicit sync: err=%v syncs=%d", err, sink.syncs)
		}
	})
}

func TestParseSyncPolicy(t *testing.T) {
	for _, name := range []string{"always", "never"} {
		p, err := ParseSyncPolicy(name)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("ParseSyncPolicy(%q).String() = %q", name, p.String())
		}
	}
	for _, bogus := range []string{"sometimes", "interval"} {
		if _, err := ParseSyncPolicy(bogus); err == nil {
			t.Fatalf("bogus policy %q accepted", bogus)
		}
	}
}

// TestDiskFullPoisonsJournal: a failed append (injected disk-full) must
// surface the error and poison the journal — a torn frame makes every
// later append unreliable, so they must fail fast with the original
// cause rather than silently stacking records after a hole.
func TestDiskFullPoisonsJournal(t *testing.T) {
	for _, tear := range []bool{false, true} {
		name := "clean-reject"
		if tear {
			name = "torn-write"
		}
		t.Run(name, func(t *testing.T) {
			sink := &memSink{failAfter: 20, tear: tear}
			j := NewJournal(sink, SyncAlways)
			if err := j.Append([]byte("ok")); err != nil { // 10 bytes: fits
				t.Fatal(err)
			}
			if err := j.Append([]byte("this one does not fit")); !errors.Is(err, errDiskFull) {
				t.Fatalf("overflow append error = %v, want disk full", err)
			}
			if err := j.Append([]byte("x")); err == nil {
				t.Fatal("append after write failure succeeded")
			} else if !errors.Is(err, errDiskFull) {
				t.Fatalf("poisoned append error = %v, want the original disk-full cause", err)
			}
			if j.Err() == nil {
				t.Fatal("journal does not report its sticky error")
			}
			// Whatever landed on disk, the valid prefix must still scan:
			// the first record survives, the torn tail is isolated.
			payloads, tail := ScanFrames(sink.buf.Bytes())
			if len(payloads) != 1 || !bytes.Equal(payloads[0], []byte("ok")) {
				t.Fatalf("valid prefix lost: %q (tail %+v)", payloads, tail)
			}
			if tear && tail.Clean() {
				t.Fatal("torn write left a clean-scanning journal")
			}
		})
	}
}

func TestRewriteCompacts(t *testing.T) {
	j, path := openTempJournal(t, SyncAlways)
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	grown := j.Size()
	snapshot := [][]byte{[]byte("live-1"), []byte("live-2")}
	if err := j.Rewrite(snapshot); err != nil {
		t.Fatal(err)
	}
	if j.Size() >= grown {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", grown, j.Size())
	}
	// Appends continue on the compacted file and both survive a reopen.
	if err := j.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec, err := OpenJournal(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := append(append([][]byte{}, snapshot...), []byte("post-compact"))
	if len(rec.Payloads) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(rec.Payloads[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, rec.Payloads[i], want[i])
		}
	}
	if !rec.Tail.Clean() {
		t.Fatalf("compacted journal has tail %+v", rec.Tail)
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction temp file left behind: %v", err)
	}
}

func TestRewriteNeedsFileBacking(t *testing.T) {
	j := NewJournal(&memSink{failAfter: -1}, SyncNever)
	if err := j.Rewrite([][]byte{[]byte("x")}); err == nil {
		t.Fatal("sink-backed journal accepted a rewrite")
	}
}
