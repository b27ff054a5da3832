// Package gossip is a SWIM-style membership layer for the serving
// cluster: each node periodically pings one peer (picked by a seeded
// randomized round-robin), falls back to indirect ping-req probes
// through other members when the direct probe fails, and piggybacks its
// full membership view — member states and incarnation numbers — on
// every message. Failure detection is therefore O(1) per node per
// protocol period regardless of cluster size, and health information
// spreads epidemically instead of through a central prober.
//
// States follow SWIM's alive → suspect → dead lifecycle: a member whose
// probes fail is only *suspected* first, and can refute the suspicion
// by incrementing its incarnation number (it learns of the suspicion
// from the piggybacked updates that reach it). Only when the suspicion
// survives the confirmation timeout is the member declared dead.
// Conflicting claims are ordered by incarnation, then by state
// precedence (dead > suspect > alive), so the view converges no matter
// the delivery order.
//
// Everything is deterministic under an injected Clock and seed: tests
// drive protocol periods with explicit Tick calls over an in-memory
// transport, and two identically seeded clusters produce byte-identical
// membership event logs. The wall-clock background loop (Run) exists
// only for production processes.
package gossip

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Clock abstracts wall time, as everywhere else in this repo.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Peer seeds the static membership list: the cluster's node set is
// fixed at boot (a replica set behind one gate), so there is no join
// protocol — only health state moves.
type Peer struct {
	// Name is the node's cluster-unique name (replica names "b0",
	// "b1", ... for piumaserve processes, "gate" for the front door).
	Name string
	// Addr is the node's base URL (the HTTP transport POSTs to
	// Addr+"/v1/gossip").
	Addr string
}

// Event records one membership state change, in detection order. The
// event sequence is the package's determinism contract.
type Event struct {
	// Seq numbers events in emission order (node-wide).
	Seq uint64 `json:"seq"`
	// Node is the member whose state changed.
	Node string `json:"node"`
	// State is the new state ("alive", "suspect", "dead").
	State string `json:"state"`
	// Incarnation is the member's incarnation at the transition.
	Incarnation uint32 `json:"incarnation"`
}

// Transport carries one request/response gossip exchange. The HTTP
// implementation is in transport.go; tests use the in-memory one.
type Transport interface {
	Exchange(ctx context.Context, addr string, msg Message) (Message, error)
}

// Config tunes a Node. Name, Peers and Transport are required.
type Config struct {
	// Name is this node's cluster-unique name.
	Name string
	// Addr is this node's advertised address (rides in updates so peers
	// of peers learn how to reach it).
	Addr string
	// Peers is the static member list (this node excluded or included —
	// its own entry is ignored).
	Peers []Peer
	// Transport carries the exchanges.
	Transport Transport
	// Clock injects virtual time (nil = wall clock).
	Clock Clock
	// Seed drives the probe-order shuffle — the protocol's only
	// randomness.
	Seed int64
	// Interval is the background protocol period for Run (default 1s).
	// Tick ignores it.
	Interval time.Duration
	// Timeout bounds one exchange (default 1s).
	Timeout time.Duration
	// SuspectAfter is how many consecutive failed probe rounds of a
	// member make it suspect (default 2) — the gossip analogue of the
	// prober's mark-down hysteresis.
	SuspectAfter int
	// DeadAfter is how long a suspicion may stand unrefuted before the
	// member is confirmed dead (default 10s).
	DeadAfter time.Duration
	// OnEvent, when non-nil, observes every membership transition
	// synchronously in emission (Seq) order, even when Ticks and
	// Receives race. Delivery is serialized, so the callback must not
	// call back into Tick or Receive.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * time.Second
	}
	return c
}

// member is one peer's tracked state.
type member struct {
	name        string
	addr        string
	state       State
	incarnation uint32
	misses      int       // consecutive failed probe rounds
	suspectedAt time.Time // when the local node first suspected it
}

// Node is one gossip participant.
type Node struct {
	cfg   Config
	clock Clock

	mu      sync.Mutex
	members map[string]*member // peers only; self tracked separately
	order   []string           // current probe round order (seeded shuffle)
	pos     int
	rng     *rand.Rand
	selfInc uint32
	seq     uint32 // probe sequence
	evSeq   uint64
	pending []Event // sequenced under mu, not yet delivered to OnEvent

	// emitMu serializes OnEvent delivery. Seq is allocated under mu but
	// delivery happens outside it; without this lock two concurrent
	// Receives could hand their event batches to OnEvent in the wrong
	// order (Seq 6 observed before Seq 5). Ordering: emitMu is acquired
	// before mu, never the reverse.
	emitMu sync.Mutex
}

// NewNode builds a node from the static peer list.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("gossip: node name is required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gossip: transport is required")
	}
	n := &Node{
		cfg:     cfg,
		clock:   cfg.Clock,
		members: make(map[string]*member, len(cfg.Peers)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, p := range cfg.Peers {
		if p.Name == "" || p.Name == cfg.Name {
			continue
		}
		if _, dup := n.members[p.Name]; dup {
			return nil, fmt.Errorf("gossip: duplicate peer %q", p.Name)
		}
		n.members[p.Name] = &member{name: p.Name, addr: p.Addr, state: StateAlive}
	}
	if len(n.members) == 0 {
		return nil, fmt.Errorf("gossip: at least one peer is required")
	}
	return n, nil
}

// Name is the node's cluster name.
func (n *Node) Name() string { return n.cfg.Name }

// Incarnation is the node's own current incarnation number.
func (n *Node) Incarnation() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.selfInc
}

// View snapshots the membership — every peer plus the node itself —
// sorted by name, so renderings and assertions are deterministic.
func (n *Node) View() []Update {
	n.mu.Lock()
	out := n.updatesLocked()
	n.mu.Unlock()
	return out
}

// updatesLocked builds the piggyback view: self first (by name sort
// below), peers after, all sorted by name.
func (n *Node) updatesLocked() []Update {
	out := make([]Update, 0, len(n.members)+1)
	out = append(out, Update{Node: n.cfg.Name, Addr: n.cfg.Addr, State: StateAlive, Incarnation: n.selfInc})
	for _, m := range n.members {
		out = append(out, Update{Node: m.name, Addr: m.addr, State: m.state, Incarnation: m.incarnation})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// emit drains every sequenced-but-undelivered event to OnEvent. The
// callback runs outside the node lock (so it may call the read-side
// API) but under emitMu: the pending queue is appended in Seq order
// under mu, batches are drained in emitMu acquisition order, and a
// later batch can only contain later Seqs — so observers see events in
// Seq order even when Ticks and Receives race.
func (n *Node) emit() {
	if n.cfg.OnEvent == nil {
		return
	}
	n.emitMu.Lock()
	defer n.emitMu.Unlock()
	n.mu.Lock()
	events := n.pending
	n.pending = nil
	n.mu.Unlock()
	for _, e := range events {
		n.cfg.OnEvent(e)
	}
}

// eventLocked allocates the next event and queues it for delivery.
func (n *Node) eventLocked(node string, state State, inc uint32) Event {
	e := Event{Seq: n.evSeq, Node: node, State: state.String(), Incarnation: inc}
	n.evSeq++
	if n.cfg.OnEvent != nil {
		n.pending = append(n.pending, e)
	}
	return e
}

// Tick runs one protocol period: probe the next member (directly, then
// indirectly), fold in whatever the exchanges taught us, and sweep
// suspicions past the confirmation timeout. Deterministic under an
// injected clock, seed and transport.
func (n *Node) Tick(ctx context.Context) {
	target, addr, ok := n.nextTarget()
	if ok {
		n.probe(ctx, target, addr)
	}
	n.sweepSuspects()
	n.emit()
}

// nextTarget picks the next probe target via seeded randomized
// round-robin: the member list is shuffled once per full cycle, so
// every member is probed exactly once per cycle but in an order an
// adversarial failure pattern cannot predict.
func (n *Node) nextTarget() (name, addr string, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.members) == 0 {
		return "", "", false
	}
	if n.pos >= len(n.order) {
		names := make([]string, 0, len(n.members))
		for name := range n.members {
			names = append(names, name)
		}
		sort.Strings(names)
		n.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		n.order, n.pos = names, 0
	}
	name = n.order[n.pos]
	n.pos++
	m := n.members[name]
	if m == nil {
		return "", "", false
	}
	return name, m.addr, true
}

// probe runs the direct-then-indirect probe of one member and applies
// the outcome; resulting events are queued for the caller's emit.
func (n *Node) probe(ctx context.Context, target, addr string) {
	n.mu.Lock()
	seq := n.seq
	n.seq++
	updates := n.updatesLocked()
	helpers := n.helpersLocked(target)
	n.mu.Unlock()

	ping := Message{Kind: KindPing, Seq: seq, From: n.cfg.Name, Updates: updates}
	ack, err := n.exchange(ctx, addr, ping)
	if err != nil {
		// Indirect probes: ask k other members to ping the target for us.
		// A helper that reaches the target relays its ack.
		req := Message{Kind: KindPingReq, Seq: seq, From: n.cfg.Name, Target: target, Updates: updates}
		for _, h := range helpers {
			if ack, err = n.exchange(ctx, h.addr, req); err == nil {
				break
			}
		}
	}
	if err != nil {
		n.probeFailed(target)
		return
	}
	n.Apply(ack.Updates)
	n.probeSucceeded(target)
}

func (n *Node) exchange(ctx context.Context, addr string, msg Message) (Message, error) {
	ectx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	defer cancel()
	return n.cfg.Transport.Exchange(ectx, addr, msg)
}

// indirectProbes is how many helpers a failed direct probe recruits
// for ping-req.
const indirectProbes = 1

// helpersLocked picks up to indirectProbes alive members (excluding the
// target) in name order — deterministic helper selection.
func (n *Node) helpersLocked(target string) []*member {
	names := make([]string, 0, len(n.members))
	for name, m := range n.members {
		if name != target && m.state == StateAlive {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > indirectProbes {
		names = names[:indirectProbes]
	}
	out := make([]*member, 0, len(names))
	for _, name := range names {
		out = append(out, n.members[name])
	}
	return out
}

// probeFailed counts a miss and suspects the member once the misses
// cross the hysteresis threshold.
func (n *Node) probeFailed(target string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.members[target]
	if m == nil {
		return
	}
	m.misses++
	if m.state == StateAlive && m.misses >= n.cfg.SuspectAfter {
		m.state = StateSuspect
		m.suspectedAt = n.clock.Now()
		n.eventLocked(m.name, StateSuspect, m.incarnation)
	}
}

// probeSucceeded clears the miss counter. The ack's piggybacked
// updates (already applied) are what actually move the member's state;
// direct reachability on its own does not override a dead claim with a
// higher incarnation.
func (n *Node) probeSucceeded(target string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.members[target]; m != nil {
		m.misses = 0
	}
}

// sweepSuspects confirms suspicions older than the confirmation
// timeout, in name order.
func (n *Node) sweepSuspects() {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	var names []string
	for name, m := range n.members {
		if m.state == StateSuspect && now.Sub(m.suspectedAt) >= n.cfg.DeadAfter {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := n.members[name]
		m.state = StateDead
		n.eventLocked(m.name, StateDead, m.incarnation)
	}
}

// Apply folds a batch of gossiped updates into the membership and
// returns the resulting transition events (already sequenced and
// queued for delivery — Receive and Tick flush the queue to OnEvent in
// Seq order). Conflict resolution is
// SWIM's: a higher incarnation always wins; within an incarnation,
// dead > suspect > alive. An update claiming this node itself is
// anything but alive is refuted by bumping the node's own incarnation
// past the claim, which the next piggyback spreads.
func (n *Node) Apply(updates []Update) []Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	var events []Event
	for _, u := range updates {
		if u.Node == n.cfg.Name {
			if u.State != StateAlive && u.Incarnation >= n.selfInc {
				n.selfInc = u.Incarnation + 1
			}
			continue
		}
		m := n.members[u.Node]
		if m == nil {
			// Unknown node: static membership means this is a peer-of-peer
			// we were not seeded with. Track it so the view converges.
			m = &member{name: u.Node, addr: u.Addr, state: StateAlive}
			n.members[u.Node] = m
			n.order = nil // re-shuffle next cycle with the new member
			n.pos = 0
		}
		if u.Addr != "" {
			m.addr = u.Addr
		}
		if !supersedes(u, m) {
			continue
		}
		changed := m.state != u.State
		m.incarnation = u.Incarnation
		if changed {
			m.state = u.State
			if u.State == StateSuspect {
				m.suspectedAt = n.clock.Now()
			}
			if u.State == StateAlive {
				m.misses = 0
			}
			events = append(events, n.eventLocked(m.name, m.state, m.incarnation))
		}
	}
	return events
}

// supersedes reports whether update u overrides member m's current
// record.
func supersedes(u Update, m *member) bool {
	if u.Incarnation != m.incarnation {
		return u.Incarnation > m.incarnation
	}
	return u.State > m.state // dead > suspect > alive
}

// Receive handles one inbound message and returns the reply. Pings are
// acked with the local view; ping-reqs probe the target on the
// sender's behalf and relay the target's ack (or fail, which tells the
// sender the target is unreachable from here too).
func (n *Node) Receive(ctx context.Context, msg Message) (Message, error) {
	n.Apply(msg.Updates)
	n.emit()
	switch msg.Kind {
	case KindPing:
		n.mu.Lock()
		ack := Message{Kind: KindAck, Seq: msg.Seq, From: n.cfg.Name, Updates: n.updatesLocked()}
		n.mu.Unlock()
		return ack, nil
	case KindPingReq:
		n.mu.Lock()
		m := n.members[msg.Target]
		var addr string
		if m != nil {
			addr = m.addr
		}
		updates := n.updatesLocked()
		n.mu.Unlock()
		if m == nil {
			return Message{}, fmt.Errorf("gossip: ping-req for unknown node %q", msg.Target)
		}
		ack, err := n.exchange(ctx, addr, Message{Kind: KindPing, Seq: msg.Seq, From: n.cfg.Name, Updates: updates})
		if err != nil {
			return Message{}, fmt.Errorf("gossip: indirect probe of %s failed: %w", msg.Target, err)
		}
		n.Apply(ack.Updates)
		n.emit()
		n.mu.Lock()
		relay := Message{Kind: KindAck, Seq: msg.Seq, From: n.cfg.Name, Updates: n.updatesLocked()}
		n.mu.Unlock()
		return relay, nil
	case KindAck:
		return Message{}, fmt.Errorf("gossip: unsolicited ack from %s", msg.From)
	}
	return Message{}, fmt.Errorf("gossip: unhandled kind %d", msg.Kind)
}

// Run drives Tick on the configured interval until ctx is done — the
// production loop; tests call Tick directly.
func (n *Node) Run(ctx context.Context) {
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.Tick(ctx)
		}
	}
}
