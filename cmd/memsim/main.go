// Command memsim replays an NVMain-format (or binary) memory trace against
// one memory configuration and prints the performance metrics the paper's
// DSE consumes — the NVMain stand-in of the workflow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/trace"
)

// beatingSource forwards a trace source while marking supervision progress
// per delivered batch.
type beatingSource struct {
	src trace.Source
	hb  *guard.Heartbeat
}

func (b beatingSource) Next(batch []trace.Event) (int, error) {
	n, err := b.src.Next(batch)
	if n > 0 {
		b.hb.Beat()
	}
	return n, err
}

func main() {
	var (
		in       = flag.String("i", "", "input trace (required); NVMain text or binary format")
		binary   = flag.Bool("binary", false, "input is in binary trace format")
		strict   = flag.Bool("strict", true, "fail on the first corrupt record or malformed line")
		maxBad   = flag.Int64("max-bad-lines", 0, "permissive mode: fail after this many malformed lines (0 = unlimited)")
		memType  = flag.String("type", "dram", "memory type: dram, nvm, or hybrid")
		channels = flag.Int("channels", 2, "memory channels")
		cpu      = flag.Float64("cpu-mhz", 2000, "CPU frequency in MHz")
		ctrl     = flag.Float64("ctrl-mhz", 400, "controller frequency in MHz")
		trcd     = flag.Uint64("trcd", 0, "NVM tRCD in controller cycles (0 = mid-sweep default)")
		fraction = flag.Float64("fraction", 0.125, "hybrid DRAM fraction")
		flat     = flag.Bool("flat", false, "use the flat (partitioned) hybrid organization")
		sched    = flag.String("sched", "frfcfs", "scheduler: fcfs or frfcfs")
		policy   = flag.String("policy", "open", "row policy: open or closed")
		verbose  = flag.Bool("v", false, "print per-channel detail")
		deadline = flag.Duration("deadline", 0, "wall-clock deadline for the replay (0 = none; expiry exits "+fmt.Sprint(artifact.ExitTimeout)+")")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(artifact.ExitUsage)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// Stream the trace straight into the simulator — paper-scale traces
	// (91.5M lines) never need to fit in memory as a parsed event slice.
	// Permissive mode replays the valid prefix of a damaged trace and exits
	// with the salvage code.
	var src trace.Source
	var txt *trace.TextSource
	var bin *trace.SalvageSource
	if *binary {
		bsrc := trace.NewBinarySource(f)
		if *strict {
			src = bsrc
		} else {
			bin = trace.NewSalvageSource(bsrc)
			src = bin
		}
	} else {
		txt = trace.NewNVMainSourceOpts(f, trace.TextOptions{Strict: *strict, MaxBadLines: *maxBad})
		src = txt
	}

	t := *trcd
	if t == 0 {
		t = memsim.NVMTRCDSweep(*ctrl)[2]
	}
	var cfg memsim.Config
	switch *memType {
	case "dram":
		cfg = memsim.NewDRAMConfig(*channels, *cpu, *ctrl)
	case "nvm":
		cfg = memsim.NewNVMConfig(*channels, *cpu, *ctrl, t)
	case "hybrid":
		cfg = memsim.NewHybridConfig(*channels, *cpu, *ctrl, t, *fraction)
		if *flat {
			cfg.HybridMode = memsim.HybridFlat
		}
	default:
		fatal(fmt.Errorf("unknown memory type %q", *memType))
	}
	if *sched == "fcfs" {
		cfg.Scheduler = memsim.FCFS
	}
	if *policy == "closed" {
		cfg.Policy = memsim.ClosedPage
	}

	sim, err := memsim.New(cfg)
	if err != nil {
		fatal(err)
	}
	var res *memsim.Result
	if *deadline > 0 {
		// Supervised replay: the deadline cancels the stage and the tool
		// exits with the timeout code instead of running forever. The trace
		// source doubles as the heartbeat, so progress is visible to the
		// supervisor batch by batch.
		err = guard.Run(context.Background(), "replay",
			guard.StageOptions{Timeout: *deadline, Grace: 200 * time.Millisecond},
			func(ctx context.Context, hb *guard.Heartbeat) error {
				var rerr error
				res, rerr = sim.RunSource(beatingSource{src, hb})
				return rerr
			})
	} else {
		res, err = sim.RunSource(src)
	}
	if err != nil {
		fatal(err)
	}
	exit := artifact.ExitOK
	if bin != nil && bin.Report() != nil {
		fmt.Fprintf(os.Stderr, "memsim: input damaged, replayed valid prefix: %s\n", bin.Report())
		exit = artifact.ExitSalvaged
	}
	if txt != nil && txt.Report().BadLines > 0 {
		rep := txt.Report()
		fmt.Fprintf(os.Stderr, "memsim: dropped %d malformed lines of %d\n", rep.BadLines, rep.Lines)
		exit = artifact.ExitSalvaged
	}
	fmt.Println(res)
	fmt.Printf("  energy        %8.3g mJ\n", res.TotalEnergyNJ*1e-6)
	if res.MaxRowWrites > 0 {
		fmt.Printf("  hottest row   %d writes (est. lifetime %.1f years)\n", res.MaxRowWrites, res.LifetimeYears)
	}
	if *verbose {
		for ch, st := range res.Channels {
			fmt.Printf("  ch%d: reads=%d writes=%d rowHits=%d rowMisses=%d stalls=%d\n",
				ch, st.Reads, st.Writes, st.RowHits, st.RowMisses, st.StallCycles)
		}
	}
	os.Exit(exit)
}

// fatal reports err and exits with the corrupt-input code when the error is
// a detected format/integrity failure, the timeout code when a deadline
// stopped the replay, and the generic code otherwise.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsim:", err)
	if errors.Is(err, artifact.ErrCorrupt) || errors.Is(err, artifact.ErrTruncated) ||
		errors.Is(err, trace.ErrFormat) || errors.Is(err, trace.ErrBadLineBudget) {
		os.Exit(artifact.ExitCorrupt)
	}
	if guard.ClassOf(err) == guard.Timeout {
		os.Exit(artifact.ExitTimeout)
	}
	os.Exit(artifact.ExitError)
}
