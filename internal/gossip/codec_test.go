package gossip

import (
	"bytes"
	"strings"
	"testing"
)

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{Kind: KindPing, Seq: 0, From: "gate"},
		{Kind: KindPingReq, Seq: 42, From: "b0", Target: "b2"},
		{Kind: KindAck, Seq: 7, From: "b1", Updates: []Update{
			{Node: "b0", Addr: "http://127.0.0.1:8081", State: StateAlive, Incarnation: 3},
			{Node: "b1", State: StateSuspect, Incarnation: 1},
			{Node: "b2", State: StateDead, Incarnation: 9},
		}},
	}
	for _, m := range msgs {
		b := mustEncode(t, m)
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Kind, err)
		}
		b2, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%s did not round-trip byte-identically", m.Kind)
		}
		if got.Kind != m.Kind || got.From != m.From || got.Target != m.Target || got.Seq != m.Seq {
			t.Fatalf("decoded %+v, want %+v", got, m)
		}
		if len(got.Updates) != len(m.Updates) {
			t.Fatalf("decoded %d updates, want %d", len(got.Updates), len(m.Updates))
		}
		for i := range m.Updates {
			if got.Updates[i] != m.Updates[i] {
				t.Fatalf("update %d = %+v, want %+v", i, got.Updates[i], m.Updates[i])
			}
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	valid := mustEncode(t, Message{Kind: KindAck, Seq: 1, From: "b0", Updates: []Update{
		{Node: "b1", State: StateAlive, Incarnation: 2},
	}})
	cases := map[string][]byte{
		"empty":          {},
		"short":          {codecMagic0},
		"bad magic":      append([]byte{'X', 'Y'}, valid[2:]...),
		"bad version":    append([]byte{codecMagic0, codecMagic1, 99}, valid[3:]...),
		"bad kind":       append([]byte{codecMagic0, codecMagic1, codecVersion, 9}, valid[4:]...),
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// Out-of-range state byte inside an update.
	bad := append([]byte{}, valid...)
	bad[len(bad)-5] = 7 // state byte precedes incarnation (4)
	if _, err := Decode(bad); err == nil {
		t.Error("decode accepted an unknown member state")
	}
	// A version-1 peer's frame of the same message (each update then
	// ended in a u32 queue depth) is refused by version, not misparsed.
	v1 := append(append([]byte{codecMagic0, codecMagic1, 1}, valid[3:]...), 0, 0, 0, 0)
	if _, err := Decode(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("decode of a v1 frame: err %v, want unsupported version 1", err)
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := Encode(Message{Kind: KindPing, From: string(make([]byte, 300))}); err == nil {
		t.Error("encode accepted a 300-byte name")
	}
	too := Message{Kind: KindAck, From: "x", Updates: make([]Update, MaxUpdates+1)}
	if _, err := Encode(too); err == nil {
		t.Error("encode accepted too many updates")
	}
}

// FuzzGossipDecode asserts the codec's core invariant under arbitrary
// input: Decode either rejects cleanly or yields a message that
// re-encodes byte-identically (the encoding is canonical).
func FuzzGossipDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{codecMagic0, codecMagic1, codecVersion, byte(KindPing)})
	seed := []Message{
		{Kind: KindPing, Seq: 1, From: "gate"},
		{Kind: KindPingReq, Seq: 2, From: "b0", Target: "b1"},
		{Kind: KindAck, Seq: 3, From: "b1", Updates: []Update{
			{Node: "b0", Addr: "http://x", State: StateSuspect, Incarnation: 5},
		}},
	}
	for _, m := range seed {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		out, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, out)
		}
	})
}
