package gossip

import "testing"

// benchMessage is a representative steady-state exchange: a ping with
// a four-member piggybacked view (three replicas plus the gate).
var benchMessage = Message{
	Kind: KindPing,
	Seq:  42,
	From: "b0",
	Updates: []Update{
		{Node: "b0", Addr: "http://127.0.0.1:8081", State: StateAlive, Incarnation: 3},
		{Node: "b1", Addr: "http://127.0.0.1:8082", State: StateSuspect, Incarnation: 2},
		{Node: "b2", Addr: "http://127.0.0.1:8083", State: StateAlive, Incarnation: 5},
		{Node: "gate", State: StateAlive, Incarnation: 1},
	},
}

// BenchmarkGossipEncode measures rendering one exchange's wire form —
// the per-probe sender cost.
func BenchmarkGossipEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Encode(benchMessage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipDecode measures the strict parse on the receive path.
func BenchmarkGossipDecode(b *testing.B) {
	wire, err := Encode(benchMessage)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
