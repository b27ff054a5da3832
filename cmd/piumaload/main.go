// Command piumaload is the load generator for piumaserve (see
// internal/workload): it turns a seeded scenario spec — arrival
// process, multi-tenant client mix, SLO classes — into a deterministic
// request schedule, drives it against a live server, and reduces the
// outcomes to a per-SLO-class latency and fairness report.
//
// Scenarios are open-loop by default (requests fire at scheduled
// offsets no matter how many are in flight). mode=closed instead runs
// a fixed worker population with exponential think time, so throughput
// couples to server latency — the interactive-user model.
//
// Usage:
//
//	piumaload -target http://localhost:8080 -scenario canonical
//	piumaload -target http://localhost:8080 \
//	    -scenario 'rate=40,process=gamma,shape=0.5,duration=10s;tenant=search,class=gold,weight=3,experiment=table1,templates=4;tenant=batch,class=batch,experiment=fig9'
//	piumaload -target http://localhost:8080 \
//	    -scenario 'mode=closed,concurrency=8,think=100ms,duration=10s;tenant=users,class=gold,experiment=table1,templates=4'
//	piumaload -target ... -scenario smoke -record run.trace
//	piumaload -target ... -replay run.trace
//	piumaload -scenarios
//
// The target may be a single piumaserve or a piumagate front door —
// the API is identical either way.
//
// -scenario accepts either a named scenario (see -scenarios) or a full
// key=value spec. -record writes the run as a length-prefixed CRC32C
// trace (the same framing as the serve journal); -replay re-issues a
// recorded trace's request stream byte-for-byte against the target.
// The report prints as text by default, or canonical JSON with -json.
//
// Exit status is 0 for a clean run, 1 for usage or transport failures,
// and 2 when the run finished but saw request errors (backpressure —
// 429/503 — is not an error; use -fail-on-backpressure to tighten).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"piumagcn/internal/serve"
	"piumagcn/internal/workload"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		target    = flag.String("target", "http://127.0.0.1:8080", "piumaserve base URL")
		scenario  = flag.String("scenario", "", "named scenario or key=value spec (see -scenarios)")
		list      = flag.Bool("scenarios", false, "list the named scenarios and exit")
		record    = flag.String("record", "", "write the run trace to this file")
		replay    = flag.String("replay", "", "replay a recorded trace instead of generating a schedule")
		jsonOut   = flag.Bool("json", false, "print the report as canonical JSON instead of text")
		timeout   = flag.Duration("request-timeout", 60*time.Second, "per-request deadline")
		inFlight  = flag.Int("max-in-flight", 512, "open-loop concurrency cap; requests over it shed as backpressure (negative = unbounded)")
		skipCheck = flag.Bool("skip-health-check", false, "skip the target /healthz probe before the run")
		failBP    = flag.Bool("fail-on-backpressure", false, "exit 2 on backpressure (429/503/shed), not just errors")
		retry429  = flag.Int("retry-429", 0, "retries after a 429, honoring Retry-After (0 = default 2, negative disables)")
	)
	flag.Parse()

	if *list {
		for _, name := range workload.NamedScenarios() {
			s, err := workload.Named(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
				return 1
			}
			fmt.Printf("%-12s %s\n", name, s.String())
		}
		return 0
	}
	if (*scenario == "") == (*replay == "") {
		fmt.Fprintln(os.Stderr, "piumaload: exactly one of -scenario or -replay is required")
		flag.Usage()
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := serve.NewClient(*target, nil)
	engine := &workload.Engine{
		Client:      &workload.HTTPClient{C: client, Timeout: *timeout, Retry429: *retry429},
		MaxInFlight: *inFlight,
	}

	var trace *workload.Trace
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
		trace, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
		engine.Scenario = trace.Scenario
	} else {
		sc, err := resolveScenario(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
		engine.Scenario = sc
	}

	if !*skipCheck {
		probe, cancel := context.WithTimeout(ctx, 5*time.Second)
		err := client.Healthz(probe)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: target %s not healthy: %v (use -skip-health-check to force)\n", *target, err)
			return 1
		}
		exps, err := client.Experiments(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: listing experiments: %v\n", err)
			return 1
		}
		ids := make([]string, 0, len(exps))
		for _, e := range exps {
			ids = append(ids, e.ID)
		}
		if err := engine.Scenario.ValidateExperiments(ids); err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
		defer f.Close()
		tw, err := workload.NewTraceWriter(f, engine.Scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
		engine.Trace = tw
	}

	var (
		rep *workload.Report
		err error
	)
	if trace != nil {
		rep, err = engine.Replay(ctx, trace)
	} else {
		rep, err = engine.Run(ctx)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
		return 1
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "piumaload: %v\n", err)
			return 1
		}
	} else {
		fmt.Print(rep.Render())
	}
	if rep.Errors > 0 || rep.Timeouts > 0 || (*failBP && rep.Backpressure > 0) {
		return 2
	}
	return 0
}

// resolveScenario accepts a named scenario or a raw spec (anything
// containing '=' is treated as a spec).
func resolveScenario(in string) (workload.Scenario, error) {
	if !strings.Contains(in, "=") {
		return workload.Named(in)
	}
	return workload.Parse(in)
}
