package gate

import (
	"context"
	"fmt"

	"piumagcn/internal/gossip"
)

// The gate participates in the replica gossip as a non-serving member
// named "gate": it probes replicas through the same SWIM protocol the
// replicas run among themselves. Each membership transition to suspect
// or dead demotes the replica in the registry, backed by the whole
// cluster's observations rather than one prober's vantage point. Gossip
// never promotes: a replica it demoted comes back only through a
// passing probe (or a submission it answers), so a process whose
// gossip agent still answers while its /healthz fails — a draining
// piumaserve — cannot talk its way back into routing.

// gateNodeName is the gate's member name in the gossip cluster.
const gateNodeName = "gate"

// newGossipNode builds the gate's gossip participant over the replica
// set. The transport shares the fan-out HTTP client, so a chaos-wrapped
// client drives gossip through the same scheduled fault timeline as the
// data path.
func (g *Gate) newGossipNode() (*gossip.Node, error) {
	replicas := g.reg.All()
	peers := make([]gossip.Peer, 0, len(replicas))
	for _, r := range replicas {
		peers = append(peers, gossip.Peer{Name: r.Name, Addr: r.URL})
	}
	node, err := gossip.NewNode(gossip.Config{
		Name:         gateNodeName,
		Peers:        peers,
		Transport:    &gossip.HTTPTransport{Client: g.hc},
		Clock:        g.clock,
		Seed:         g.cfg.Seed,
		Timeout:      g.cfg.GossipTimeout,
		SuspectAfter: g.cfg.SuspectAfter,
		DeadAfter:    g.cfg.DeadAfter,
		OnEvent: func(e gossip.Event) {
			if rep := g.reg.find(e.Node); rep != nil {
				g.metrics.observeGossipEvent(rep.Name, e.State)
				if e.State != gossip.StateAlive.String() {
					g.reg.observe(rep, gossipDown)
				}
			}
			if g.cfg.OnMembership != nil {
				g.cfg.OnMembership(e)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("gate: building gossip node: %w", err)
	}
	return node, nil
}

// Gossip exposes the gate's gossip node (nil when gossip is disabled)
// for introspection and tests.
func (g *Gate) Gossip() *gossip.Node { return g.node }

// GossipTick runs one gossip protocol period (whose membership
// transitions reach the registry through OnEvent) and copies the
// resulting view's member states to the metrics. The background loop
// calls this on its ticker; deterministic tests call it directly.
func (g *Gate) GossipTick(ctx context.Context) {
	if g.node == nil {
		return
	}
	g.node.Tick(ctx)
	for _, u := range g.node.View() {
		rep := g.reg.find(u.Node)
		if rep == nil {
			continue // the gate's own entry, or an unknown member
		}
		g.metrics.setMemberState(rep.Name, float64(u.State))
	}
}
