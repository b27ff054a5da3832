// Package piuma models the Programmable Integrated Unified Memory
// Architecture of Section II-D on top of the discrete-event engine in
// internal/sim: multi-threaded pipelines (MTPs) with one in-flight
// memory operation per thread, per-core DRAM slices with explicit
// latency and bandwidth, a distributed global address space with remote
// access penalties, and per-core DMA offload engines with FIFO
// descriptor queues.
package piuma

import (
	"errors"
	"fmt"

	"piumagcn/internal/sim"
)

// Config is the PIUMA machine configuration. The defaults reproduce the
// paper's baseline die; every sweep in Figures 5-8 changes exactly one
// of these knobs.
type Config struct {
	// Cores in the simulated system (the paper sweeps 1-32; a die has
	// 8 cores, Figure 7's "8 core PIUMA system (1 die)").
	Cores int
	// MTPsPerCore is the number of multi-threaded pipelines per core.
	MTPsPerCore int
	// ThreadsPerMTP is the hardware thread count per MTP; the default
	// is 16 and Figure 7 sweeps 1-16.
	ThreadsPerMTP int
	// STPsPerCore single-threaded pipelines (used for management tasks;
	// they do not run SpMM worker loops but are part of the thread
	// inventory).
	STPsPerCore int
	// ClockGHz is the pipeline clock. PIUMA pipelines are single-issue
	// in-order at low clock for power efficiency.
	ClockGHz float64
	// DRAMLatency is the idle access latency of a local DRAM slice;
	// Figure 6/7 sweep this from 45 ns to 720 ns.
	DRAMLatency sim.Time
	// SliceBandwidth is the bandwidth of one core's DRAM slice in
	// bytes/second; Figure 6 (top) scales this.
	SliceBandwidth float64
	// RemoteBaseLatency is the extra round-trip latency for accessing
	// another core's slice (optical Hyper-X network), before per-hop
	// distance costs.
	RemoteBaseLatency sim.Time
	// HopLatency is the additional latency per unit of ring distance
	// between requester core and home core.
	HopLatency sim.Time
	// DMAInitiation is the pipelined descriptor initiation interval of
	// the DMA engine: a new descriptor can start every DMAInitiation
	// even while earlier payloads stream (the engine is itself latency
	// tolerant, Section IV-C).
	DMAInitiation sim.Time
	// DMAOverhead is the per-descriptor completion latency (decode +
	// engine-internal turnaround); it adds to when the data lands, not
	// to engine occupancy.
	DMAOverhead sim.Time
	// DMAQueueDepth bounds outstanding descriptors per core's engine;
	// threads block issuing into a full queue.
	DMAQueueDepth int
	// CacheLineBytes is the request granularity of the loop-unrolled
	// kernel ("a fully aligned, 64-byte cache line").
	CacheLineBytes int
	// FeatureBytes per embedding element (8: the unrolled kernel packs
	// eight values per 64-byte line).
	FeatureBytes int
	// ColIndexBytes and ValueBytes per CSR non-zero (Equation 1's B_C
	// and B_N).
	ColIndexBytes int
	ValueBytes    int
}

// DefaultConfig returns the calibrated baseline machine; see DESIGN.md
// §5 for the provenance of each constant.
func DefaultConfig() Config {
	return Config{
		Cores:             8,
		MTPsPerCore:       4,
		ThreadsPerMTP:     16,
		STPsPerCore:       2,
		ClockGHz:          1.0,
		DRAMLatency:       45 * sim.Nanosecond,
		SliceBandwidth:    25.6e9,
		RemoteBaseLatency: 240 * sim.Nanosecond,
		HopLatency:        10 * sim.Nanosecond,
		DMAInitiation:     2 * sim.Nanosecond,
		DMAOverhead:       20 * sim.Nanosecond,
		DMAQueueDepth:     16,
		CacheLineBytes:    64,
		FeatureBytes:      8,
		ColIndexBytes:     4,
		ValueBytes:        8,
	}
}

// Validate rejects non-physical configurations.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return errors.New("piuma: need at least one core")
	case c.MTPsPerCore <= 0:
		return errors.New("piuma: need at least one MTP per core")
	case c.ThreadsPerMTP <= 0:
		return errors.New("piuma: need at least one thread per MTP")
	case c.ClockGHz <= 0:
		return errors.New("piuma: clock must be positive")
	case c.DRAMLatency < 0:
		return errors.New("piuma: negative DRAM latency")
	case c.SliceBandwidth <= 0:
		return errors.New("piuma: slice bandwidth must be positive")
	case c.RemoteBaseLatency < 0 || c.HopLatency < 0:
		return errors.New("piuma: negative network latency")
	case c.DMAInitiation < 0 || c.DMAOverhead < 0:
		return errors.New("piuma: negative DMA timing")
	case c.DMAQueueDepth <= 0:
		return errors.New("piuma: DMA queue depth must be positive")
	case c.CacheLineBytes <= 0 || c.FeatureBytes <= 0 || c.CacheLineBytes%c.FeatureBytes != 0:
		return fmt.Errorf("piuma: cache line %dB must be a positive multiple of feature size %dB", c.CacheLineBytes, c.FeatureBytes)
	case c.ColIndexBytes <= 0 || c.ValueBytes <= 0:
		return errors.New("piuma: CSR element sizes must be positive")
	}
	return nil
}

// WorkerThreads returns the MTP thread count available for kernels.
func (c Config) WorkerThreads() int { return c.Cores * c.MTPsPerCore * c.ThreadsPerMTP }

// TotalThreads includes the STP threads (the ">16K threads per node"
// inventory counts both pipeline types).
func (c Config) TotalThreads() int {
	return c.WorkerThreads() + c.Cores*c.STPsPerCore
}

// AggregateBandwidth returns the node's total DRAM bandwidth in bytes/s.
func (c Config) AggregateBandwidth() float64 {
	return float64(c.Cores) * c.SliceBandwidth
}

// Cycle returns the duration of n pipeline cycles.
func (c *Config) Cycle(n int64) sim.Time {
	return sim.Time(float64(n) * 1000.0 / c.ClockGHz * float64(sim.Picosecond))
}

// LineTransferTime is the slice-bus occupancy of one cache-line request.
func (c *Config) LineTransferTime() sim.Time {
	return c.TransferTime(int64(c.CacheLineBytes))
}

// TransferTime is the slice-bus occupancy of an n-byte transfer.
func (c *Config) TransferTime(n int64) sim.Time {
	return sim.Time(float64(n) / c.SliceBandwidth * float64(sim.Second))
}

// PeakDenseGFLOPS estimates the machine's dense-MM capability: each MTP
// is a single-issue scalar pipeline, and the inner loop of a scalar
// dense kernel retires roughly two FLOPs (one fused multiply-add) every
// three issued instructions (load, FMA, bookkeeping). PIUMA has no SIMD
// unit (Section V-B), which is exactly why Figure 9's speedups shrink as
// the embedding dimension grows.
func (c Config) PeakDenseGFLOPS() float64 {
	pipes := float64(c.Cores * c.MTPsPerCore)
	return pipes * c.ClockGHz * (2.0 / 3.0)
}
