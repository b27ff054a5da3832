package kernels

import (
	"fmt"
	"math/rand"

	"piumagcn/internal/graph"
	"piumagcn/internal/piuma"
	"piumagcn/internal/sim"
)

// This file implements the random-walk microbenchmark of Section VI:
// neighbourhood-sampling GNN methods (pinSAGE, graphSAGE) are built on
// random walks, a latency-bound pointer-chasing workload the paper
// notes PIUMA "greatly accelerates over standard CPUs" thanks to its
// massive multi-threading. Each walker performs dependent reads — row
// pointer, then a uniformly chosen neighbour — so a single walker's
// rate is capped by memory latency, and aggregate throughput comes
// entirely from concurrent walkers hiding each other's stalls.

// WalkResult reports one random-walk simulation.
type WalkResult struct {
	Cfg piuma.Config
	// Walkers is the number of concurrent walker threads.
	Walkers int
	// Steps is the per-walker step count.
	Steps int
	// Elapsed is the simulated completion time.
	Elapsed sim.Time
	// StepsPerSecond is the aggregate walk throughput.
	StepsPerSecond float64
	// AvgStepLatency is the mean dependent-read chain latency per step.
	AvgStepLatency sim.Time
}

// RunRandomWalk simulates `steps` random-walk steps on every hardware
// thread of the machine over graph a. Walk targets are chosen with a
// deterministic per-walker RNG so runs are reproducible.
func RunRandomWalk(cfg piuma.Config, a *graph.CSR, steps int) (WalkResult, error) {
	return RunRandomWalkTraced(cfg, a, steps, nil)
}

// RunRandomWalkTraced is RunRandomWalk with a tracer observing the
// simulation (see RunTraced). A nil tr is exactly RunRandomWalk.
func RunRandomWalkTraced(cfg piuma.Config, a *graph.CSR, steps int, tr sim.Tracer) (WalkResult, error) {
	if steps <= 0 {
		return WalkResult{}, fmt.Errorf("kernels: steps must be positive, got %d", steps)
	}
	if err := a.Validate(); err != nil {
		return WalkResult{}, err
	}
	if a.NumEdges() == 0 {
		return WalkResult{}, fmt.Errorf("kernels: random walk needs a non-empty graph")
	}
	m, err := piuma.NewMachine(cfg)
	if err != nil {
		return WalkResult{}, err
	}
	if tr != nil {
		m.SetTracer(tr)
	}
	walkers := cfg.WorkerThreads()
	res := WalkResult{Cfg: cfg, Walkers: walkers, Steps: steps}
	run := &walkRun{m: m, a: a, steps: steps}
	ws := make([]walker, walkers)
	for t := range ws {
		w := &ws[t]
		rng := rand.New(rand.NewSource(int64(t)*0x9E37 + 1))
		*w = walker{run: run, core: t % cfg.Cores, rng: rng, v: rng.Intn(a.NumVertices)}
		m.Eng.StartStep(&w.Proc, fmt.Sprintf("walker%d", t), w)
	}
	if err := m.Eng.Run(); err != nil {
		return WalkResult{}, fmt.Errorf("kernels: random walk simulation failed: %w", err)
	}
	res.Elapsed = run.finish
	if run.finish > 0 {
		res.StepsPerSecond = float64(walkers) * float64(steps) / run.finish.Seconds()
	}
	if n := int64(walkers) * int64(steps); n > 0 {
		res.AvgStepLatency = run.totalLatency / sim.Time(n)
	}
	return res, nil
}

// walkRun is the state the walkers of one simulation share.
type walkRun struct {
	m            *piuma.Machine
	a            *graph.CSR
	steps        int
	totalLatency sim.Time
	finish       sim.Time
}

// walker is one walker thread, run as a step process on its embedded
// Proc: pc is where it resumes when its outstanding read completes.
type walker struct {
	sim.Proc
	run  *walkRun
	core int
	rng  *rand.Rand
	pc   walkPC
	// v is the current vertex; s counts finished steps, and the current
	// one began at t0.
	v  int
	s  int
	t0 sim.Time
}

type walkPC uint8

const (
	walkRow     walkPC = iota // start a step: read v's row pointer
	walkPick                  // row pointer arrived: read a random neighbour
	walkArrived               // neighbour arrived: the step is done
)

func (w *walker) Step(p *sim.Proc) {
	run, a := w.run, w.run.a
	lineBytes := int64(run.m.Cfg.CacheLineBytes)
	for {
		switch w.pc {
		case walkRow:
			if w.s == run.steps {
				if p.Now() > run.finish {
					run.finish = p.Now()
				}
				return
			}
			// Dependent chain: row-pointer read, then neighbour read.
			// Both are fine-grained remote loads (a walk has no spatial
			// locality to amortize).
			w.t0 = p.Now()
			w.pc = walkPick
			if p.SleepUntil(run.m.ReadBlocking(p.Now(), w.core, int64(w.v), lineBytes)) {
				return
			}
		case walkPick:
			deg := int(a.Degree(w.v))
			if deg == 0 {
				w.v = w.rng.Intn(a.NumVertices) // teleport from sinks
				w.s++
				w.pc = walkRow
				continue
			}
			cols, _ := a.Row(w.v)
			w.v = int(cols[w.rng.Intn(deg)])
			w.pc = walkArrived
			if p.SleepUntil(run.m.ReadBlocking(p.Now(), w.core, int64(w.v), lineBytes)) {
				return
			}
		case walkArrived:
			run.totalLatency += p.Now() - w.t0
			w.s++
			w.pc = walkRow
		}
	}
}
