// Command perfbench is graphdse's end-to-end and per-layer benchmark. It
// runs one named workload for a fixed time, checks every operation's output,
// and prints one JSON object as its last line of standard output:
//
//	perfbench --workload paper-workflow --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the traced run: it records spans around each call into a layer, writes
// them to <workdir>/spans/, and prints the per-layer metrics derived from
// them. run.sh builds the binary inside the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"graphdse/internal/artifact"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Traced   bool
	// Workdir holds the run's scratch files and the span dump.
	Workdir string
	// Setups is how often set-up runs; setup_s is the median.
	Setups int
	// MinOps is the least number of measured operations, even past
	// Duration.
	MinOps int
	// Pins are the expected digests for this workload and seed (may be
	// empty).
	Pins map[string]string
	// RefPins are the expected digests for this workload and DefaultSeed,
	// which set-up checks.
	RefPins  map[string]string
	Workflow workflowSize
	Daemon   daemonSize
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	run      func(context.Context, runConfig) (*outcome, error)
	workflow workflowSize
	daemon   daemonSize
	setups   int
	minOps   int
}

// workloads are the benchmark's inputs; README.md gives the reason for
// each.
var workloads = map[string]workload{
	// The paper's setup: 104,577 BFS events, the 416-point space, Table I.
	"paper-workflow": {
		run:      runWorkflow,
		workflow: workflowSize{Vertices: 1024, EdgeFactor: 16, ReplayPerType: 3},
		setups:   2,
		minOps:   3,
	},
	// dsed in-process over loopback HTTP, 2 closed-loop clients submitting
	// 26-point paper-scale jobs over 6 traces (the cache holds 4).
	"daemon-jobs": {
		run:    runDaemon,
		daemon: daemonSize{Vertices: 1024, EdgeFactor: 16, Space: subSpace(), Traces: 6, Clients: 2, ReplayPerType: 3},
		setups: 3,
		minOps: 100,
	},
}

// outcome is a run's verdict and measured values.
type outcome struct {
	attempted, failed int
	// wrongs counts outputs that failed their check; any makes the run
	// incorrect.
	wrongs   int
	problems []string
	values   map[string]float64
	spans    *tracer
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail counts an operation that errored or was refused.
func (o *outcome) fail(msg string) {
	o.failed++
	o.note(msg)
}

// wrong records an output that failed its check; it also fails the
// operation.
func (o *outcome) wrong(msg string) {
	o.failed++
	o.wrongs++
	o.note("wrong output: " + msg)
}

func (o *outcome) note(msg string) {
	const keep = 8
	if len(o.problems) < keep {
		o.problems = append(o.problems, msg)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metrics of the run's kind. A per-layer metric the
// workload does not produce reads 0; a missing end-to-end metric is a bug.
func buildReport(cfg runConfig, out *outcome) (*report, error) {
	rep := &report{
		Correct:   out.wrongs == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if out.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	ok := float64(out.attempted - out.failed)
	out.values["ok_frac"] = ok / float64(out.attempted)
	out.values["failed_frac"] = float64(out.failed) / float64(out.attempted)
	want := endToEnd
	if cfg.Traced {
		want = perLayer
	}
	for _, m := range metricTable {
		if m.Kind != want {
			continue
		}
		v, have := out.values[m.Name]
		if !have && m.Kind == endToEnd {
			return nil, fmt.Errorf("workload %s produced no %s", cfg.Workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", DefaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", HeldOutSeed))
	seconds := fs.Int("seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		Workload: *name,
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Traced:   *traceFlag == 1,
		Workdir:  *workdir,
		Setups:   w.setups,
		MinOps:   w.minOps,
		Pins:     pins[*name][*seed],
		RefPins:  pins[*name][DefaultSeed],
		Workflow: w.workflow,
		Daemon:   w.daemon,
	}
	if cfg.Traced {
		// Half the operations of a traced run are traced.
		cfg.MinOps *= 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := execute(ctx, w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one workload in a scratch directory it removes afterwards,
// and writes the traced run's spans to <workdir>/spans/.
func execute(ctx context.Context, w workload, cfg runConfig, stderr io.Writer) (*report, error) {
	if err := artifact.OS.MkdirAll(cfg.Workdir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.Workdir, "run-"+cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.Workdir = scratch
	out, err := w.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	fmt.Fprintf(stderr, "perfbench: median operation %.4g s wall-clock, host-speed kernel %.4g s (reference %g s)\n",
		out.values["host.wall_time_to_recommendation_s"], out.values["host.kernel_s"], refKernelSeconds)
	if out.spans != nil {
		dir := filepath.Join(filepath.Dir(scratch), "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := artifact.OS.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := out.spans.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	return buildReport(cfg, out)
}

func workloadNames() string {
	return fmt.Sprint(sortedKeys(workloads))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
