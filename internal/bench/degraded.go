package bench

import (
	"context"
	"fmt"

	"piumagcn/internal/faults"
	"piumagcn/internal/obs"
	"piumagcn/internal/piuma"
	"piumagcn/internal/piuma/kernels"
	"piumagcn/internal/textplot"
)

// ext-degraded: the degraded-mode study. The paper characterizes a
// healthy PIUMA; this experiment asks how gracefully the DMA kernel's
// bandwidth-bound operating point decays when the machine is not
// healthy — dead cores/MTPs shrinking the thread inventory, derated
// DRAM slices, an inflated or lossy network. The fault profile scales
// from severity 0 (the uninjected machine, bit-identical to fig5's
// simulations) to 1 (the full profile), and the figure plots the
// slowdown curve.

func init() {
	register(Experiment{
		ID:          "ext-degraded",
		Title:       "Degraded-mode operation under fault injection",
		Description: "DMA-kernel slowdown vs fault severity: dead cores/MTPs, derated DRAM slices, slow and lossy network (deterministic, seeded).",
		Run:         runExtDegraded,
	})
}

// degradedSeverities is the sweep grid; severity 0 doubles as the
// healthy baseline every other point is normalized against.
func degradedSeverities(o Options) []float64 {
	if o.Quick {
		return []float64{0, 1}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1}
}

func runExtDegraded(ctx context.Context, o Options) (*Report, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	base, err := o.FaultSpec()
	if err != nil {
		return nil, err
	}
	if base == nil {
		p := faults.DefaultProfile(o.Seed)
		base = &p
	}
	g, err := simGraph(o)
	if err != nil {
		return nil, err
	}
	mark := obs.MarkFrom(ctx)
	r := &Report{ID: "ext-degraded", Title: "Degraded-mode operation under fault injection"}
	cfg := piuma.DefaultConfig()
	k := 64
	if o.Quick {
		k = 16
	}

	sevs := degradedSeverities(o)
	specs := make([]faults.Spec, len(sevs))
	pts := make([]point, len(sevs))
	for i, sev := range sevs {
		specs[i] = base.Scale(sev)
		pts[i] = point{label: fmt.Sprintf("ext-degraded dma sev=%.2f K=%d", sev, k),
			cfg: cfg, kind: kernels.KindDMA, k: k, faults: &specs[i]}
	}
	res, err := sweepKernels(ctx, g, pts)
	if err != nil {
		return nil, err
	}

	tb := &textplot.Table{Headers: []string{
		"severity", "dead cores", "dead MTPs", "derated", "net", "loss", "GFLOPS", "slowdown", "slice util"}}
	var xs []string
	var slowdown []float64
	baseline := 0.0
	for i, got := range res {
		sev, spec := sevs[i], specs[i]
		if sev == 0 {
			baseline = got.Elapsed.Seconds()
		}
		slow := 1.0
		if baseline > 0 {
			slow = got.Elapsed.Seconds() / baseline
		}
		inj, err := faults.New(spec, cfg.Cores, cfg.MTPsPerCore)
		if err != nil {
			return nil, err
		}
		net := "1x"
		if f := spec.NetDelayFactor; f > 1 {
			net = fmt.Sprintf("%.2gx", f)
		}
		tb.AddRow(fmt.Sprintf("%.2f", sev),
			fmt.Sprintf("%d", inj.DeadCoreCount()),
			fmt.Sprintf("%d", inj.DeadMTPCount()),
			fmt.Sprintf("%d", inj.DeratedSliceCount()),
			net,
			fmt.Sprintf("%.2g", spec.LossRate),
			fmt.Sprintf("%.1f", got.GFLOPS),
			fmt.Sprintf("%.2fx", slow),
			fmt.Sprintf("%.0f%%", 100*got.AvgSliceUtilization))
		xs = append(xs, fmt.Sprintf("%.2f", sev))
		slowdown = append(slowdown, slow)
	}
	tag := "built-in default profile"
	if o.Faults != "" {
		tag = fmt.Sprintf("spec %q", o.Faults)
	}
	r.Add(fmt.Sprintf("DMA kernel under scaled faults (%s, seed %d, K=%d)", tag, base.Seed, k), tb.String())
	r.Add("Slowdown vs fault severity",
		textplot.Lines(xs, []textplot.Series{{Name: "slowdown", Y: slowdown}}, 12))
	if n := len(slowdown); n > 0 && slowdown[n-1] > 1 {
		r.Note("full-severity faults slow the DMA kernel %.2fx; severity 0 reproduces the healthy simulation bit for bit", slowdown[n-1])
	}
	r.Note("fault placement is seeded (seed=%d): identical options reproduce the identical degraded machine", base.Seed)
	attachProfile(ctx, r, mark)
	return r, nil
}
