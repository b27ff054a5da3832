package kernels

import "piumagcn/internal/sim"

// loopThread is one thread of the loop-unrolled kernel, run as a step
// process. A PIUMA thread is a few registers of in-order state, not a
// stack: the fields below are those registers, and pc is where the
// thread resumes when its outstanding access completes.
//
// After the startup search, each edge is a column-index read and a
// value read (stall-on-use round trips), then ceil(K·B_F/line) feature
// lines, each fetched and then consumed by its unrolled loads and MACs
// before the next fetch issues. A finished row is written back through
// the remote atomic offload, fire-and-forget for the thread.
type loopThread struct {
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

func (th *loopThread) step(p *sim.Proc) {
	r := th.r
	cfg := &r.m.Cfg
	lineBytes := int64(cfg.CacheLineBytes)
	nLines := (r.featureRowBytes() + lineBytes - 1) / lineBytes
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
			if r.blockingRead(p, th.core, block, r.burst(8)) {
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
			if r.blockingRead(p, th.core, th.e*int64(cfg.ColIndexBytes)/lineBytes, r.burst(int64(cfg.ColIndexBytes))) {
				return
			}
		case loopRowFlushed:
			r.bd.Compute += p.Now() - th.t0
			th.u++
			th.pc = loopEdge
		case loopValue:
			th.pc = loopNNZ
			if r.blockingRead(p, th.core, th.e*int64(cfg.ValueBytes)/lineBytes, r.burst(int64(cfg.ValueBytes))) {
				return
			}
		case loopNNZ:
			r.observeNNZ(p.Now() - th.t0)
			r.bd.NNZWait += p.Now() - th.t0
			th.i = 0
			th.pc = loopLine
		case loopLine:
			if th.i == nLines {
				th.e++
				th.pc = loopEdge
				continue
			}
			th.t0 = p.Now()
			th.pc = loopMAC
			if p.SleepUntil(r.m.ReadBlockingAt(p.Now(), th.core, r.rowHome(th.v), lineBytes)) {
				return
			}
		case loopMAC:
			r.bd.FeatureWait += p.Now() - th.t0
			th.t0 = p.Now()
			unroll := cfg.CacheLineBytes / cfg.FeatureBytes
			_, issueEnd := th.mtp.Reserve(p.Now(), cfg.Cycle(int64(2*unroll)))
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
	_, issueEnd := th.mtp.Reserve(p.Now(), r.m.Cfg.Cycle(4))
	r.m.WriteAsyncAt(p.Now(), r.rowHome(int64(th.u)), r.burst(r.featureRowBytes()))
	return p.SleepUntil(issueEnd)
}
