// Command dse runs the paper's end-to-end workflow (Figure 1): generate the
// graph workload, trace it on the system simulator, sweep the 416-point
// memory design space through the memory simulator, train the four ML
// surrogates, and print the paper's artifacts — the Figure 2 summary table,
// the Table I model comparison, the Figure 3 prediction series, and the
// §IV-B recommendations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
	"graphdse/internal/guard"
)

// parseBytes parses a byte size with an optional binary-unit suffix
// (KiB/MiB/GiB, or bare bytes).
func parseBytes(s string) (uint64, error) {
	mult := uint64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for suffix, m := range map[string]uint64{"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30} {
		if strings.HasSuffix(upper, suffix) {
			mult = m
			upper = strings.TrimSuffix(upper, suffix)
			break
		}
	}
	n, err := strconv.ParseUint(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("size %q: want e.g. 512MiB or 1073741824", s)
	}
	return n * mult, nil
}

func main() {
	var (
		vertices   = flag.Int("n", 1024, "graph vertices (paper: 1024)")
		edgeFactor = flag.Int("ef", 16, "edge factor (paper: 16)")
		seed       = flag.Int64("seed", 42, "workload seed")
		repeats    = flag.Int("repeats", 2, "BFS roots traced")
		failures   = flag.Bool("failures", true, "inject the paper's ~10% simulation crash rate")
		figure2    = flag.Bool("figure2", false, "print the Figure 2 summary table")
		table1     = flag.Bool("table1", false, "print the Table I model comparison")
		figure3    = flag.String("figure3", "", "print the Figure 3 series for one metric (e.g. Power), or 'all'")
		recommend  = flag.Bool("recommend", false, "print the co-design recommendations")
		pareto     = flag.Bool("pareto", false, "print the Pareto-optimal configurations")
		importance = flag.Bool("importance", false, "print per-metric feature importances")
		extended   = flag.Bool("extended", false, "add Ridge/KNN/MLP to the model comparison")
		csvPath    = flag.String("csv", "", "export the ML dataset as CSV to this path")
		all        = flag.Bool("all", false, "print everything")

		checkpoint   = flag.String("checkpoint", "", "append completed sweep records to this JSON-lines file")
		resume       = flag.Bool("resume", false, "resume from -checkpoint, skipping already-completed points")
		strictCkpt   = flag.Bool("strict-checkpoint", false, "fail resume on malformed interior checkpoint lines instead of re-running them")
		checkedCSV   = flag.Bool("checked-csv", false, "wrap the -csv export in the checksummed artifact container")
		timeout      = flag.Duration("timeout", 0, "per-configuration simulation deadline (0 = none)")
		retries      = flag.Int("retries", 0, "retries for transient simulation faults")
		minSurvivors = flag.Int("min-survivors", 0, "fail unless at least this many configurations survive the sweep")
		faillog      = flag.Bool("faillog", false, "print the sweep failure log")

		deadline     = flag.Duration("deadline", 0, "whole-pipeline wall-clock deadline (0 = none; expiry exits "+fmt.Sprint(artifact.ExitTimeout)+")")
		stageTimeout = flag.Duration("stage-timeout", 0, "per-stage wall-clock deadline (0 = none)")
		heartbeat    = flag.Duration("heartbeat", 0, "per-stage heartbeat watchdog: cancel a stage whose progress stalls this long (0 = off)")
		memBudget    = flag.String("mem-budget", "", "heap soft budget, e.g. 512MiB: under pressure the sweep sheds workers instead of dying (empty = off)")
		guardReport  = flag.Bool("guard-report", false, "print the supervision run report (per-stage outcomes) to stderr")

		daemonURL   = flag.String("daemon", "", "dsed base URL, e.g. http://127.0.0.1:8080 (used by -follow)")
		follow      = flag.String("follow", "", "follow a daemon job's event stream by job ID until it completes (requires -daemon)")
		followAfter = flag.Uint64("follow-after", 0, "resume -follow delivery after this event sequence number")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the workflow to this file (read it with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file once the workflow ends")
	)
	flag.Parse()
	if *follow != "" {
		if *daemonURL == "" {
			fmt.Fprintln(os.Stderr, "dse: -follow requires -daemon")
			os.Exit(artifact.ExitUsage)
		}
		runFollow(*daemonURL, *follow, *followAfter)
		return
	}
	if !*figure2 && !*table1 && *figure3 == "" && !*recommend && !*pareto && !*importance && *csvPath == "" {
		*all = true
	}

	opts := dse.WorkflowOptions{
		Vertices:   *vertices,
		EdgeFactor: *edgeFactor,
		Seed:       *seed,
		Repeats:    *repeats,
		SplitSeed:  7,
	}
	if *extended {
		opts.Models = dse.ExtendedModels(*seed)
	}
	if *failures {
		opts.Sweep.Faults = dse.PaperFaults(dse.PaperFailureRate, 1)
	}
	opts.Sweep.CheckpointPath = *checkpoint
	opts.Sweep.Resume = *resume
	opts.Sweep.StrictCheckpoint = *strictCkpt
	opts.Sweep.OnCheckpointSalvage = func(rep *dse.CheckpointReport) {
		fmt.Fprintln(os.Stderr, "dse: resume salvage:", rep)
		for _, s := range rep.Sample {
			fmt.Fprintln(os.Stderr, "dse:   ", s)
		}
	}
	opts.Sweep.Timeout = *timeout
	opts.Sweep.Retries = *retries
	opts.Sweep.MinSurvivors = *minSurvivors
	opts.Guard = guard.PipelineOptions{
		Deadline: *deadline,
		Stage:    guard.StageOptions{Timeout: *stageTimeout, HeartbeatTimeout: *heartbeat},
	}
	if *memBudget != "" {
		soft, err := parseBytes(*memBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse: -mem-budget:", err)
			os.Exit(artifact.ExitUsage)
		}
		opts.Guard.Budget.HeapSoftBytes = soft
	}

	// Ctrl-C or SIGTERM interrupts the sweep cleanly; with -checkpoint the
	// completed records are flushed and -resume picks up where the run
	// stopped. A second signal forces immediate exit for operators who
	// cannot wait for the drain.
	ctx, stop := guard.SignalContext(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "dse: second signal (%v): forcing exit\n", sig)
		os.Exit(artifact.ExitError)
	})
	defer stop()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(artifact.ExitUsage)
	}
	start := time.Now()
	res, err := dse.RunWorkflowContext(ctx, opts)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, "dse:", perr)
		os.Exit(artifact.ExitError)
	}
	if res != nil && res.Supervision != nil {
		if *guardReport {
			guard.RenderReport(os.Stderr, res.Supervision)
		} else {
			// Downshifts always reach the run log: a silently degraded run
			// would be indistinguishable from a full-parallelism one.
			for _, d := range res.Supervision.Downshifts {
				fmt.Fprintf(os.Stderr, "guard: %s\n", d)
			}
		}
	}
	if err != nil {
		var sf *dse.SweepFailureError
		if errors.As(err, &sf) {
			fmt.Fprintln(os.Stderr, "dse: sweep failure summary:", sf)
		} else {
			fmt.Fprintln(os.Stderr, "dse:", err)
		}
		if guard.ClassOf(err) == guard.Timeout {
			os.Exit(artifact.ExitTimeout)
		}
		os.Exit(artifact.ExitError)
	}
	fmt.Fprintf(os.Stderr, "workflow completed in %v: %d trace events, %d/%d configurations survived (%d failed)\n",
		time.Since(start).Round(time.Millisecond), res.TraceEvents, res.SurvivorCount, len(res.Records), len(res.FailureLog))
	if *faillog {
		dse.RenderFailureLog(os.Stderr, res.FailureLog)
	}

	if *all || *figure2 {
		fmt.Println("== Figure 2: memory performance summary (means per cell) ==")
		dse.RenderFigure2(os.Stdout, res.Figure2)
		fmt.Println()
	}
	if *all || *table1 {
		fmt.Println("== Table I: ML model performance (min-max scaled, 80/20 split) ==")
		dse.RenderTable1(os.Stdout, res.Table1)
		fmt.Println()
	}
	if *all || *figure3 != "" {
		metrics := []string{*figure3}
		if *all || *figure3 == "all" {
			metrics = metrics[:0]
			for m := range res.Figure3 {
				metrics = append(metrics, m)
			}
			sort.Strings(metrics)
		}
		for _, m := range metrics {
			s, ok := res.Figure3[m]
			if !ok {
				fmt.Fprintf(os.Stderr, "dse: unknown metric %q\n", m)
				os.Exit(1)
			}
			if err := dse.PlotFigure3(os.Stdout, s, "SVM", 16); err != nil {
				fmt.Fprintln(os.Stderr, "dse:", err)
				os.Exit(1)
			}
			fmt.Println()
			dse.RenderFigure3(os.Stdout, s)
			fmt.Println()
		}
	}
	if *all || *recommend {
		fmt.Println("== Recommendations (§IV-B) ==")
		dse.RenderRecommendations(os.Stdout, res.Recommendation)
	}
	if *all || *pareto {
		front, err := dse.ParetoFront(res.Records, dse.DefaultObjectives())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		fmt.Printf("\n== Pareto front (min power & latencies, max bandwidth): %d of %d configurations ==\n",
			len(front), res.SurvivorCount)
		for _, r := range front {
			m := r.Result
			fmt.Printf("  %-44s power=%.3fW bw=%.0fMB/s avgLat=%.1f totLat=%.1f\n",
				r.Point.ID(), m.AvgPowerPerChannel, m.AvgBandwidthPerBank, m.AvgLatency, m.AvgTotalLatency)
		}
	}
	if *all || *importance {
		fmt.Println("\n== Feature importances ==")
		for _, metric := range []string{"Power", "Bandwidth", "TotalLatency"} {
			imps, err := dse.FeatureImportanceReport(res.Dataset, metric, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dse:", err)
				os.Exit(1)
			}
			dse.RenderImportance(os.Stdout, metric, imps)
		}
	}
	if *csvPath != "" {
		// Atomic: readers of the export never observe a half-written file.
		err := artifact.WriteFileAtomic(*csvPath, 0o644, func(w io.Writer) error {
			if *checkedCSV {
				return dse.WriteCSVChecked(w, res.Dataset)
			}
			return dse.WriteCSV(w, res.Dataset)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dataset written to %s (%d rows)\n", *csvPath, res.Dataset.Len())
	}
}
