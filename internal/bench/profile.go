package bench

import (
	"context"
	"fmt"

	"piumagcn/internal/obs"
	"piumagcn/internal/textplot"
)

// This file bridges the experiment runners to the observability layer:
// when the caller put an obs.Profiler in ctx (piumabench -profile /
// -trace, or the serve job queue), every event-level simulation is
// registered as a labeled run (see sweep) and each simulating
// experiment appends a per-component utilization section to its report.

// maxProfileRows caps the per-experiment profile table: full sweeps
// simulate dozens of configurations and the aggregate JSON profile
// (serve API, -trace export) still carries every run.
const maxProfileRows = 16

// attachProfile appends a per-component utilization section covering
// the simulated runs this experiment registered since mark. A no-op
// when ctx carries no profiler or nothing was simulated.
func attachProfile(ctx context.Context, r *Report, mark obs.Mark) {
	p := obs.FromContext(ctx)
	if p == nil {
		return
	}
	stats := p.StatsSince(mark)
	if len(stats) == 0 {
		return
	}
	tb := &textplot.Table{Headers: []string{"run", "sim time", "events", "core", "dma", "slice", "net busy", "spans"}}
	shown := stats
	if len(shown) > maxProfileRows {
		shown = shown[:maxProfileRows]
	}
	for _, s := range shown {
		tb.AddRow(s.Label,
			fmt.Sprintf("%.1fus", s.Elapsed.Seconds()*1e6),
			fmt.Sprintf("%d", s.Events),
			classPct(s, "core"), classPct(s, "dma"), classPct(s, "dram-slice"),
			classBusy(s, "network"),
			fmt.Sprintf("%d", s.Spans))
	}
	r.Add("Simulation profile (per-component utilization)", tb.String())
	if len(stats) > len(shown) {
		r.Note("profile table shows the first %d of %d simulated runs (full set in the JSON profile)",
			len(shown), len(stats))
	}
}

// classPct renders a class's mean busy fraction as a percentage.
func classPct(s obs.RunStats, class string) string {
	cs, ok := s.Class(class)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*cs.Utilization)
}

// classBusy renders a class's total busy time in microseconds.
func classBusy(s obs.RunStats, class string) string {
	cs, ok := s.Class(class)
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1fus", cs.Busy.Seconds()*1e6)
}
