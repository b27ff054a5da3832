package kernels

import "piumagcn/internal/sim"

// loopThread is one thread of the loop-unrolled kernel, run as a step
// process. A PIUMA thread is a few registers of in-order state, not a
// stack: the fields below are those registers, and pc is where the
// thread resumes when its outstanding access completes. The thread
// embeds its process, wake-up event included, so an activation touches
// the thread, the shared runner and the machine, and nothing else.
//
// After the startup search, each edge is a column-index read and a
// value read (stall-on-use round trips), then ceil(K·B_F/line) feature
// lines, each fetched and then consumed by its unrolled loads and MACs
// before the next fetch issues. A finished row is written back through
// the remote atomic offload, fire-and-forget for the thread.
type loopThread struct {
	sim.Proc
	r    *runner
	done *sim.Barrier
	core int
	mtp  *sim.Server
	pc   loopPC
	// e is the next edge and end the end of the thread's range; u is the
	// row edge e belongs to once startup has found it.
	e, end int64
	u      int
	// i counts startup probes out of n, then the feature lines of edge
	// e, whose column is v.
	i, n int64
	v    int64
	// t0 is when the current timed phase began.
	t0 sim.Time
}

type loopPC uint8

const (
	loopStartup     loopPC = iota // search for the first row
	loopProbe                     // issue startup probe i, or end startup
	loopEdge                      // write back finished rows, then read edge e's column index
	loopRowFlushed                // row u's write-back issued
	loopValue                     // column index arrived: read the value
	loopNNZ                       // value arrived
	loopLine                      // fetch feature line i, or move to the next edge
	loopMAC                       // line i arrived: issue its loads and MACs
	loopRetired                   // line i's unrolled group retired
	loopLastFlushed               // last row's write-back issued: arrive at the barrier
	loopReleased                  // released from the barrier
)

// loopCosts are the loop-unrolled kernel's per-access constants. They
// depend only on the machine and K, so launch computes them once per run.
type loopCosts struct {
	lineBytes int64
	// rowLines is the number of feature lines per row.
	rowLines int64
	// colBytes and valueBytes are the sizes of one edge's column index
	// and value, which place them in the CSR streams.
	colBytes, valueBytes int64
	// The DRAM bursts of a startup probe, a column index, a value and a
	// feature row write-back.
	probeBurst, colBurst, valueBurst, rowBurst int64
	// macIssue is the pipeline time of one line's unrolled loads and
	// MACs, flushIssue that of a row write-back.
	macIssue, flushIssue sim.Time
}

func (r *runner) loopCosts() loopCosts {
	cfg := &r.m.Cfg
	lineBytes := int64(cfg.CacheLineBytes)
	unroll := cfg.CacheLineBytes / cfg.FeatureBytes
	return loopCosts{
		lineBytes:  lineBytes,
		rowLines:   (r.featureRowBytes() + lineBytes - 1) / lineBytes,
		colBytes:   int64(cfg.ColIndexBytes),
		valueBytes: int64(cfg.ValueBytes),
		probeBurst: r.burst(8),
		colBurst:   r.burst(int64(cfg.ColIndexBytes)),
		valueBurst: r.burst(int64(cfg.ValueBytes)),
		rowBurst:   r.burst(r.featureRowBytes()),
		macIssue:   cfg.Cycle(int64(2 * unroll)),
		flushIssue: cfg.Cycle(4),
	}
}

func (th *loopThread) Step(p *sim.Proc) {
	r := th.r
	c := &r.loop
	for {
		switch th.pc {
		case loopStartup:
			th.t0 = p.Now()
			th.u, th.n = r.startRow(th.e)
			th.pc = loopProbe
		case loopProbe:
			if th.i == th.n {
				r.startupDone(p, th.t0)
				th.pc = loopEdge
				continue
			}
			block := r.probeBlock(th.e, th.i)
			th.i++
			if r.blockingRead(p, th.core, block, c.probeBurst) {
				return
			}
		case loopEdge:
			if th.e == th.end {
				th.pc = loopLastFlushed
				if th.flush(p) {
					return
				}
				continue
			}
			if th.e >= r.a.RowPtr[th.u+1] {
				th.pc = loopRowFlushed
				if th.flush(p) {
					return
				}
				continue
			}
			// The CSR streams interleave across slices by line.
			th.v = int64(r.a.Col[th.e])
			th.t0 = p.Now()
			th.pc = loopValue
			if r.blockingRead(p, th.core, th.e*c.colBytes/c.lineBytes, c.colBurst) {
				return
			}
		case loopRowFlushed:
			r.bd.Compute += p.Now() - th.t0
			th.u++
			th.pc = loopEdge
		case loopValue:
			th.pc = loopNNZ
			if r.blockingRead(p, th.core, th.e*c.valueBytes/c.lineBytes, c.valueBurst) {
				return
			}
		case loopNNZ:
			r.observeNNZ(p.Now() - th.t0)
			r.bd.NNZWait += p.Now() - th.t0
			th.i = 0
			th.pc = loopLine
		case loopLine:
			if th.i == c.rowLines {
				th.e++
				th.pc = loopEdge
				continue
			}
			th.t0 = p.Now()
			th.pc = loopMAC
			if p.SleepUntil(r.m.ReadBlockingAt(p.Now(), th.core, r.rowHome(th.v), c.lineBytes)) {
				return
			}
		case loopMAC:
			r.bd.FeatureWait += p.Now() - th.t0
			th.t0 = p.Now()
			_, issueEnd := th.mtp.Reserve(p.Now(), c.macIssue)
			th.pc = loopRetired
			if p.SleepUntil(issueEnd) {
				return
			}
		case loopRetired:
			r.bd.Compute += p.Now() - th.t0
			th.i++
			th.pc = loopLine
		case loopLastFlushed:
			r.bd.Compute += p.Now() - th.t0
			th.t0 = p.Now()
			th.pc = loopReleased
			if th.done.Wait(p) {
				return
			}
		case loopReleased:
			r.passedBarrier(p, th.t0)
			return
		}
	}
}

// flush issues the write-back of row u and reports whether the thread
// parked for the issue slots it takes.
func (th *loopThread) flush(p *sim.Proc) bool {
	r := th.r
	th.t0 = p.Now()
	_, issueEnd := th.mtp.Reserve(p.Now(), r.loop.flushIssue)
	r.m.WriteAsyncAt(p.Now(), r.rowHome(int64(th.u)), r.loop.rowBurst)
	return p.SleepUntil(issueEnd)
}
