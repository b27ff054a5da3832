package gossip

import (
	"encoding/binary"
	"fmt"
)

// Wire format — a compact binary framing, little-endian throughout:
//
//	┌───────┬─────┬──────┬─────┬──────┬────────┬─────────┬───────────┐
//	│ magic │ ver │ kind │ seq │ from │ target │ n       │ updates   │
//	│ "PG"  │ u8  │ u8   │ u32 │ str8 │ str8   │ u8      │ n entries │
//	└───────┴─────┴──────┴─────┴──────┴────────┴─────────┴───────────┘
//
// where str8 is a u8 length prefix followed by that many bytes, and
// each update is
//
//	┌──────┬──────┬───────┬─────────────┐
//	│ node │ addr │ state │ incarnation │
//	│ str8 │ str8 │ u8    │ u32         │
//	└──────┴──────┴───────┴─────────────┘
//
// Decode is strict: wrong magic or version, an out-of-range kind or
// state, a truncated field, an oversized update count or trailing
// bytes all fail. The strictness is what makes the codec fuzzable —
// FuzzGossipDecode asserts that any input either fails cleanly or
// round-trips byte-identically.

const (
	codecMagic0  = 'P'
	codecMagic1  = 'G'
	codecVersion = 2
	// MaxUpdates bounds the piggybacked membership updates per message.
	// Clusters here are replica sets behind one gate, far below this.
	MaxUpdates = 64
	// maxNameBytes bounds node names and addresses on the wire.
	maxNameBytes = 255
)

// Kind enumerates the SWIM message kinds.
type Kind uint8

const (
	// KindPing is a direct liveness probe.
	KindPing Kind = 1
	// KindPingReq asks the receiver to probe Target on the sender's
	// behalf (the indirect probe that distinguishes "peer is dead" from
	// "my link to the peer is dead").
	KindPingReq Kind = 2
	// KindAck answers a ping or a successful ping-req.
	KindAck Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindPing:
		return "ping"
	case KindPingReq:
		return "ping-req"
	case KindAck:
		return "ack"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// State is a member's health in the gossip view.
type State uint8

const (
	// StateAlive: the member is answering probes (directly or via
	// helpers).
	StateAlive State = 0
	// StateSuspect: probes are failing but the suspicion timeout has not
	// elapsed; the member can refute by bumping its incarnation.
	StateSuspect State = 1
	// StateDead: the suspicion timeout elapsed without refutation.
	StateDead State = 2
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Update is one member's gossiped record: identity, claimed state and
// the incarnation number that orders conflicting claims.
type Update struct {
	Node        string `json:"node"`
	Addr        string `json:"addr,omitempty"`
	State       State  `json:"state"`
	Incarnation uint32 `json:"incarnation"`
}

// Message is one gossip exchange payload.
type Message struct {
	Kind Kind
	// Seq matches acks to probes (per-sender counter).
	Seq uint32
	// From is the sender's node name.
	From string
	// Target is the node a ping-req asks the receiver to probe; empty
	// otherwise.
	Target string
	// Updates is the piggybacked membership view.
	Updates []Update
}

// Encode renders the message's wire form.
func Encode(m Message) ([]byte, error) {
	if m.Kind != KindPing && m.Kind != KindPingReq && m.Kind != KindAck {
		return nil, fmt.Errorf("gossip: cannot encode kind %d", m.Kind)
	}
	if len(m.Updates) > MaxUpdates {
		return nil, fmt.Errorf("gossip: %d updates exceed the %d limit", len(m.Updates), MaxUpdates)
	}
	buf := make([]byte, 0, 64+32*len(m.Updates))
	buf = append(buf, codecMagic0, codecMagic1, codecVersion, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, m.Seq)
	var err error
	if buf, err = appendStr8(buf, m.From); err != nil {
		return nil, err
	}
	if buf, err = appendStr8(buf, m.Target); err != nil {
		return nil, err
	}
	buf = append(buf, byte(len(m.Updates)))
	for _, u := range m.Updates {
		if u.State > StateDead {
			return nil, fmt.Errorf("gossip: cannot encode state %d", u.State)
		}
		if buf, err = appendStr8(buf, u.Node); err != nil {
			return nil, err
		}
		if buf, err = appendStr8(buf, u.Addr); err != nil {
			return nil, err
		}
		buf = append(buf, byte(u.State))
		buf = binary.LittleEndian.AppendUint32(buf, u.Incarnation)
	}
	return buf, nil
}

func appendStr8(buf []byte, s string) ([]byte, error) {
	if len(s) > maxNameBytes {
		return nil, fmt.Errorf("gossip: string of %d bytes exceeds the %d byte wire limit", len(s), maxNameBytes)
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...), nil
}

// Decode parses one wire message, rejecting anything malformed.
func Decode(b []byte) (Message, error) {
	d := decoder{b: b}
	if len(b) < 4 || b[0] != codecMagic0 || b[1] != codecMagic1 {
		return Message{}, fmt.Errorf("gossip: bad magic")
	}
	if b[2] != codecVersion {
		return Message{}, fmt.Errorf("gossip: unsupported version %d", b[2])
	}
	d.off = 3
	kind := Kind(d.u8())
	if kind != KindPing && kind != KindPingReq && kind != KindAck {
		return Message{}, fmt.Errorf("gossip: unknown kind %d", kind)
	}
	m := Message{Kind: kind, Seq: d.u32()}
	m.From = d.str8()
	m.Target = d.str8()
	n := int(d.u8())
	if n > MaxUpdates {
		return Message{}, fmt.Errorf("gossip: %d updates exceed the %d limit", n, MaxUpdates)
	}
	if n > 0 {
		m.Updates = make([]Update, 0, n)
	}
	for i := 0; i < n; i++ {
		u := Update{Node: d.str8(), Addr: d.str8()}
		u.State = State(d.u8())
		if d.err == nil && u.State > StateDead {
			return Message{}, fmt.Errorf("gossip: unknown state %d", u.State)
		}
		u.Incarnation = d.u32()
		m.Updates = append(m.Updates, u)
	}
	if d.err != nil {
		return Message{}, d.err
	}
	if d.off != len(b) {
		return Message{}, fmt.Errorf("gossip: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}

// decoder is a bounds-checked cursor; the first short read poisons it.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.err = fmt.Errorf("gossip: truncated message at byte %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.err = fmt.Errorf("gossip: truncated message at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) str8() string {
	n := int(d.u8())
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("gossip: truncated string at byte %d", d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
