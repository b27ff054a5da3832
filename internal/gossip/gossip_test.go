package gossip

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fixedClock is a mutable virtual clock shared by every node in a test
// cluster.
type fixedClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFixedClock() *fixedClock {
	return &fixedClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// cluster is a three-node test fabric with per-node event logs.
type cluster struct {
	clock *fixedClock
	mt    *MemTransport
	nodes []*Node
	logs  [][]Event
}

func newCluster(t *testing.T, seed int64) *cluster {
	t.Helper()
	c := &cluster{clock: newFixedClock(), mt: NewMemTransport()}
	names := []string{"b0", "b1", "b2"}
	peers := make([]Peer, len(names))
	for i, name := range names {
		peers[i] = Peer{Name: name, Addr: "mem://" + name}
	}
	c.logs = make([][]Event, len(names))
	for i, name := range names {
		i := i
		n, err := NewNode(Config{
			Name: name, Addr: peers[i].Addr, Peers: peers,
			Transport: c.mt, Clock: c.clock, Seed: seed + int64(i),
			SuspectAfter: 2, DeadAfter: 5 * time.Second,
			OnEvent: func(e Event) { c.logs[i] = append(c.logs[i], e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		c.mt.Register(peers[i].Addr, n)
	}
	return c
}

// round ticks the given nodes in index order, then advances the clock
// one second — one deterministic protocol period.
func (c *cluster) round(idx ...int) {
	ctx := context.Background()
	for _, i := range idx {
		c.nodes[i].Tick(ctx)
	}
	c.clock.Advance(time.Second)
}

// scenario drives the canonical kill-and-recover script: steady state,
// b2 dies (partitioned and silent), suspicion confirms to dead, then
// b2 returns and refutes with a bumped incarnation.
func (c *cluster) scenario() {
	for i := 0; i < 4; i++ {
		c.round(0, 1, 2)
	}
	c.mt.SetDown("mem://b2", true)
	for i := 0; i < 8; i++ {
		c.round(0, 1)
	}
	c.mt.SetDown("mem://b2", false)
	for i := 0; i < 6; i++ {
		c.round(0, 1, 2)
	}
}

func stateOf(view []Update, node string) (Update, bool) {
	for _, u := range view {
		if u.Node == node {
			return u, true
		}
	}
	return Update{}, false
}

func TestMembershipLifecycle(t *testing.T) {
	c := newCluster(t, 1)
	c.scenario()

	// Both survivors walked b2 through suspect → dead → alive.
	for _, i := range []int{0, 1} {
		var states []string
		for _, e := range c.logs[i] {
			if e.Node == "b2" {
				states = append(states, e.State)
			}
		}
		want := []string{"suspect", "dead", "alive"}
		if len(states) < len(want) {
			t.Fatalf("node %d saw b2 states %v, want at least %v", i, states, want)
		}
		for j, s := range want {
			if states[j] != s {
				t.Fatalf("node %d b2 transition %d = %s, want %s (full: %v)", i, j, states[j], s, states)
			}
		}
		u, ok := stateOf(c.nodes[i].View(), "b2")
		if !ok || u.State != StateAlive {
			t.Fatalf("node %d final view of b2 = %+v", i, u)
		}
		if u.Incarnation == 0 {
			t.Fatalf("node %d: b2 recovered without bumping its incarnation", i)
		}
	}
	// b2 refuted the death claim by bumping its own incarnation.
	if inc := c.nodes[2].Incarnation(); inc == 0 {
		t.Fatal("b2 never refuted the suspicion")
	}
	// Event sequences are strictly ordered per node.
	for i, log := range c.logs {
		for j, e := range log {
			if e.Seq != uint64(j) {
				t.Fatalf("node %d event %d has seq %d", i, j, e.Seq)
			}
		}
	}
}

// TestMembershipDeterministic is the package's determinism contract:
// two identically seeded clusters running the same script produce
// byte-identical event logs on every node.
func TestMembershipDeterministic(t *testing.T) {
	run := func() []byte {
		c := newCluster(t, 7)
		c.scenario()
		b, err := json.Marshal(c.logs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("membership logs diverged:\n%s\n%s", a, b)
	}
	// A different seed reorders probes but must converge to the same
	// final views.
	c2 := newCluster(t, 99)
	c2.scenario()
	for i := range c2.nodes {
		u, ok := stateOf(c2.nodes[i].View(), "b2")
		if !ok || u.State != StateAlive {
			t.Fatalf("seed 99: node %d final view of b2 = %+v", i, u)
		}
	}
}

func TestSuspicionRefutedBeforeConfirmation(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 4; i++ {
		c.round(0, 1, 2)
	}
	// b2's address flaps long enough to be suspected, but b2 keeps
	// ticking: it hears the suspicion from its own probes' acks and
	// refutes before the confirmation timeout (5s) elapses.
	c.mt.SetDown("mem://b2", true)
	for i := 0; i < 4; i++ {
		c.round(0, 1, 2)
	}
	c.mt.SetDown("mem://b2", false)
	for i := 0; i < 4; i++ {
		c.round(0, 1, 2)
	}
	for _, i := range []int{0, 1} {
		for _, e := range c.logs[i] {
			if e.Node == "b2" && e.State == "dead" {
				t.Fatalf("node %d confirmed b2 dead despite refutation: %+v", i, c.logs[i])
			}
		}
		u, _ := stateOf(c.nodes[i].View(), "b2")
		if u.State != StateAlive {
			t.Fatalf("node %d: b2 not restored: %+v", i, u)
		}
	}
}

func TestHTTPTransportExchange(t *testing.T) {
	clock := newFixedClock()
	mkNode := func(name string, peers []Peer) *Node {
		n, err := NewNode(Config{
			Name: name, Peers: peers, Transport: &HTTPTransport{}, Clock: clock, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Bootstrap: server node first, its address learned from httptest.
	b1 := mkNode("b1", []Peer{{Name: "b0", Addr: "http://unused"}})
	ts := httptest.NewServer(Handler(b1))
	defer ts.Close()

	b0 := mkNode("b0", []Peer{{Name: "b1", Addr: ts.URL}})
	b0.Tick(context.Background())
	u, ok := stateOf(b0.View(), "b1")
	if !ok || u.State != StateAlive {
		t.Fatalf("b0 view of b1 after HTTP tick: %+v", u)
	}
	// A malformed body is rejected with 400.
	resp, err := http.Post(ts.URL+GossipPath, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed gossip POST returned %d", resp.StatusCode)
	}
}

// TestEventSeqOrderedUnderConcurrentReceive is the regression test for
// the emission-order race: Seq is allocated under the node lock but
// delivered to OnEvent outside it, so before emission was serialized
// two racing Receives could hand their batches to the observer out of
// order. Every message flips one per-worker node between suspect and
// alive at a strictly increasing incarnation — a guaranteed transition
// — so each Receive emits exactly one event while the membership stays
// small; the observer must see Seq strictly increasing no matter how
// the Receives interleave.
func TestEventSeqOrderedUnderConcurrentReceive(t *testing.T) {
	var mu sync.Mutex
	var seqs []uint64
	n, err := NewNode(Config{
		Name:      "self",
		Peers:     []Peer{{Name: "seed", Addr: "mem://seed"}},
		Transport: NewMemTransport(),
		Clock:     newFixedClock(),
		OnEvent: func(e Event) {
			mu.Lock()
			seqs = append(seqs, e.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 32
	const perWorker = 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				state := StateSuspect
				if i%2 == 1 {
					state = StateAlive
				}
				msg := Message{
					Kind: KindPing,
					From: "seed",
					Updates: []Update{{
						Node:        fmt.Sprintf("flap-%d", w),
						Addr:        "mem://x",
						State:       state,
						Incarnation: uint32(i + 1),
					}},
				}
				if _, err := n.Receive(context.Background(), msg); err != nil {
					t.Errorf("receive: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if len(seqs) != workers*perWorker {
		t.Fatalf("observed %d events, want %d", len(seqs), workers*perWorker)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("event %d out of order: Seq %d delivered after Seq %d", i, seqs[i], seqs[i-1])
		}
	}
}
