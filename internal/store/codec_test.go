package store

import (
	"bytes"
	"encoding/hex"
	"io"
	"strings"
	"testing"
)

// codecGolden is the committed wire encoding of three frames with
// payloads "a", "load", `{"kind":"req"}` — the format contract of the
// exported codec. If this test fails, the frame format changed and
// every journal and workload trace on disk is invalidated.
const codecGolden = "010000003043d0c1" + "61" +
	"04000000d3ca60e6" + "6c6f6164" +
	"0e00000048fb1727" + "7b226b696e64223a22726571227d"

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	raw, err := hex.DecodeString(codecGolden)
	if err != nil {
		t.Fatalf("bad golden hex: %v", err)
	}
	return raw
}

func TestFrameWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, p := range []string{"a", "load", `{"kind":"req"}`} {
		if err := fw.WriteFrame([]byte(p)); err != nil {
			t.Fatalf("WriteFrame(%q): %v", p, err)
		}
	}
	want := goldenBytes(t)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame encoding drifted from golden:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestFrameWriterMatchesJournalEncoder pins the writer to AppendFrame:
// the journal and the standalone codec must stay byte-identical.
func TestFrameWriterMatchesJournalEncoder(t *testing.T) {
	payloads := [][]byte{[]byte("x"), bytes.Repeat([]byte("yz"), 300)}
	var direct []byte
	for _, p := range payloads {
		direct = AppendFrame(direct, p)
	}
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), direct) {
		t.Fatal("FrameWriter and AppendFrame disagree")
	}
}

func TestFrameWriterRejectsOutOfRange(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteFrame(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := fw.WriteFrame(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameScannerRoundTrip(t *testing.T) {
	sc := NewFrameScanner(bytes.NewReader(goldenBytes(t)))
	var got []string
	for sc.Scan() {
		got = append(got, string(sc.Frame()))
	}
	if sc.Err() != nil {
		t.Fatalf("scan error: %v", sc.Err())
	}
	if tail := sc.Tail(); !tail.Clean() {
		t.Fatalf("clean input reported tail %+v", tail)
	}
	want := []string{"a", "load", `{"kind":"req"}`}
	if len(got) != len(want) {
		t.Fatalf("scanned %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFrameScannerTailReasons(t *testing.T) {
	valid := goldenBytes(t)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		reason string
	}{
		{"truncated-header", func(b []byte) []byte { return append(b, 0x01, 0x02) }, "truncated-header"},
		{"truncated-payload", func(b []byte) []byte {
			return append(b, AppendFrame(nil, []byte("tail"))[:10]...)
		}, "truncated-payload"},
		{"bad-length", func(b []byte) []byte {
			frame := AppendFrame(nil, []byte("tail"))
			frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0xff
			return append(b, frame...)
		}, "bad-length"},
		{"bad-crc", func(b []byte) []byte {
			frame := AppendFrame(nil, []byte("tail"))
			frame[4] ^= 0xff
			return append(b, frame...)
		}, "bad-crc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.mutate(append([]byte(nil), valid...))
			sc := NewFrameScanner(bytes.NewReader(input))
			n := 0
			for sc.Scan() {
				n++
			}
			if n != 3 {
				t.Fatalf("valid prefix yielded %d frames, want 3", n)
			}
			tail := sc.Tail()
			if tail.Reason != tc.reason {
				t.Fatalf("tail reason = %q, want %q", tail.Reason, tc.reason)
			}
			if tail.Offset != int64(len(valid)) {
				t.Fatalf("tail offset = %d, want %d", tail.Offset, len(valid))
			}
			// The byte-slice wrapper must agree and report the suffix size.
			_, st := ScanFrames(input)
			if st.Reason != tc.reason || st.Offset != int64(len(valid)) ||
				st.Bytes != int64(len(input)-len(valid)) {
				t.Fatalf("ScanFrames tail %+v disagrees with scanner", st)
			}
		})
	}
}

// TestFrameScannerPropagatesReadErrors distinguishes an I/O failure
// from corruption: the former surfaces via Err, the latter via Tail.
func TestFrameScannerPropagatesReadErrors(t *testing.T) {
	frame := AppendFrame(nil, []byte("abc"))
	r := io.MultiReader(bytes.NewReader(frame), &failingReader{})
	sc := NewFrameScanner(r)
	if !sc.Scan() {
		t.Fatal("first frame should scan")
	}
	if sc.Scan() {
		t.Fatal("scan past failing reader")
	}
	if sc.Err() == nil {
		t.Fatal("read error not surfaced")
	}
	if sc.Tail().Reason != "" {
		t.Fatalf("read error misreported as corruption %q", sc.Tail().Reason)
	}
}

type failingReader struct{}

func (*failingReader) Read([]byte) (int, error) {
	return 0, io.ErrClosedPipe
}

func TestFrameScannerEmptyInput(t *testing.T) {
	sc := NewFrameScanner(strings.NewReader(""))
	if sc.Scan() {
		t.Fatal("scanned a frame from empty input")
	}
	if !sc.Tail().Clean() || sc.Err() != nil {
		t.Fatalf("empty input should be clean, got tail %+v err %v", sc.Tail(), sc.Err())
	}
}
