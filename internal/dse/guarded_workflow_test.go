package dse

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"graphdse/internal/guard"
)

// guardedOpts is the shared small-workload base for supervised-workflow
// tests.
func guardedOpts() WorkflowOptions {
	return WorkflowOptions{
		Vertices:   256,
		EdgeFactor: 8,
		Seed:       42,
		Space:      smallSpace(),
		SplitSeed:  7,
		Models:     DefaultModels(42)[:1],
	}
}

// TestWorkflowWatchdogCancelsHungSweep is the tentpole acceptance test: every
// sweep point hangs (the PR-1 hang fault) with a per-point deadline far too
// long to save the run, so only the stage watchdog can act. It must cancel
// the stage via context within the heartbeat deadline, classify the failure
// as guard Timeout, and leave the process and the earlier stages healthy.
func TestWorkflowWatchdogCancelsHungSweep(t *testing.T) {
	opts := guardedOpts()
	opts.Sweep = SweepOptions{
		Faults:  &FaultInjector{Rules: []FaultRule{{Class: FaultHang, Rate: 0.9999999}}},
		Timeout: 30 * time.Second, // per-point deadline would fire far too late
		Workers: 4,
	}
	opts.Guard = guard.PipelineOptions{
		Stage: guard.StageOptions{HeartbeatTimeout: 150 * time.Millisecond, Grace: 10 * time.Second},
	}
	start := time.Now()
	res, err := RunWorkflowContext(context.Background(), opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hung sweep completed")
	}
	if got := guard.ClassOf(err); got != guard.Timeout {
		t.Fatalf("class = %v, want Timeout (%v)", got, err)
	}
	if !errors.Is(err, guard.ErrStalled) {
		t.Fatalf("error does not wrap ErrStalled: %v", err)
	}
	var ge *guard.Error
	if !errors.As(err, &ge) || ge.Stage != "sweep" {
		t.Fatalf("failure not attributed to the sweep stage: %v", err)
	}
	// "Within the heartbeat deadline": the watchdog fired long before the
	// 30s per-point deadline or the 10s grace could.
	if elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v", elapsed)
	}
	// The supervision report shows the earlier stages healthy and the sweep
	// timed out — the process itself stayed alive.
	if res == nil || res.Supervision == nil {
		t.Fatal("no supervision report on failure")
	}
	classes := map[string]guard.Class{}
	for _, s := range res.Supervision.Stages {
		classes[s.Name] = s.Class
	}
	if classes["workload"] != guard.None || classes["trace-prep"] != guard.None {
		t.Fatalf("pre-sweep stages unhealthy: %v", classes)
	}
	if classes["sweep"] != guard.Timeout {
		t.Fatalf("sweep stage class = %v", classes["sweep"])
	}
}

// TestWorkflowMemBudgetDownshift pins the graceful-degradation contract: a
// breached heap budget escalates pressure and the sweep's worker pool steps
// down, with every decision in the run report.
func TestWorkflowMemBudgetDownshift(t *testing.T) {
	opts := guardedOpts()
	opts.Sweep = SweepOptions{Workers: 8}
	// A 1-byte soft budget is breached by the very first sample, so by the
	// time the sweep sizes its pool the governor is at max pressure.
	opts.Guard = guard.PipelineOptions{
		Budget: guard.Budget{HeapSoftBytes: 1, SampleEvery: time.Millisecond},
	}
	res, err := RunWorkflowContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("budgeted workflow failed: %v", err)
	}
	if res.Supervision == nil {
		t.Fatal("no supervision report")
	}
	var sawSweepWorkers, sawPressure bool
	for _, d := range res.Supervision.Downshifts {
		if d.Stage == "governor" && d.Resource == "pressure" {
			sawPressure = true
		}
		if d.Stage == "sweep" && d.Resource == "workers" && d.To < d.From {
			// Pressure can step the pool down repeatedly (8→4, 4→2, …);
			// the first recorded downshift starts from the full request.
			if !sawSweepWorkers && d.From != 8 {
				t.Fatalf("first sweep downshift from %d, want 8", d.From)
			}
			sawSweepWorkers = true
			if !strings.Contains(d.Reason, "budget") {
				t.Fatalf("downshift reason %q does not name the budget", d.Reason)
			}
		}
	}
	if !sawPressure || !sawSweepWorkers {
		t.Fatalf("downshifts incomplete: %+v", res.Supervision.Downshifts)
	}
	if res.Supervision.PeakHeapBytes == 0 {
		t.Fatal("peak heap not sampled")
	}
	// Degraded, not dead: the run still produced the paper's outputs.
	if res.SurvivorCount == 0 || len(res.Table1) == 0 {
		t.Fatal("degraded run produced no results")
	}
}

// TestWorkflowInvariantQuarantine pins the companion acceptance case: points
// reporting physically impossible bandwidth are quarantined into the failure
// log under ReasonInvariant and the workflow still completes because the
// survivor count clears MinSurvivors.
func TestWorkflowInvariantQuarantine(t *testing.T) {
	opts := guardedOpts()
	opts.Sweep = SweepOptions{
		Faults:       &FaultInjector{Rules: []FaultRule{{Class: FaultInvariant, Rate: 0.3, Seed: 5}}},
		MinSurvivors: 5,
	}
	res, err := RunWorkflowContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("workflow did not survive the quarantine: %v", err)
	}
	if res.Gate == nil || res.Gate.Quarantined == 0 {
		t.Fatalf("gate quarantined nothing: %+v", res.Gate)
	}
	invariant := 0
	for _, f := range res.FailureLog {
		if f.Class == ReasonInvariant {
			invariant++
		}
	}
	if invariant != res.Gate.Quarantined {
		t.Fatalf("failure log has %d invariant entries, gate reports %d", invariant, res.Gate.Quarantined)
	}
	if res.SurvivorCount != len(res.Records)-res.Gate.Quarantined {
		t.Fatalf("survivors = %d of %d with %d quarantined",
			res.SurvivorCount, len(res.Records), res.Gate.Quarantined)
	}
	if res.SurvivorCount < opts.Sweep.MinSurvivors {
		t.Fatalf("completed below MinSurvivors: %d", res.SurvivorCount)
	}
}

// TestWorkflowBelowMinSurvivorsAfterGate: when the gate pushes survivorship
// under the bar, the invariant-gate stage fails with the structured sweep
// failure instead of feeding a poisoned dataset forward.
func TestWorkflowBelowMinSurvivorsAfterGate(t *testing.T) {
	opts := guardedOpts()
	opts.Sweep = SweepOptions{
		Faults:       &FaultInjector{Rules: []FaultRule{{Class: FaultInvariant, Rate: 0.3, Seed: 5}}},
		MinSurvivors: len(EnumerateSpace(opts.Space)), // impossible after any quarantine
	}
	res, err := RunWorkflowContext(context.Background(), opts)
	var sf *SweepFailureError
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want *SweepFailureError", err)
	}
	if sf.ByClass[ReasonInvariant] == 0 {
		t.Fatalf("failure summary missing invariant class: %v", sf.ByClass)
	}
	var ge *guard.Error
	if !errors.As(err, &ge) || ge.Stage != "invariant-gate" {
		t.Fatalf("failure not attributed to the gate stage: %v", err)
	}
	if res == nil || res.Dataset != nil {
		t.Fatal("dataset built despite failing the survivorship bar")
	}
}

func TestTrainAndEvaluateCancellation(t *testing.T) {
	pt := smallTrace(t)
	records, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(smallSpace()), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	// Already-cancelled context: no fit runs at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fits := 0
	_, _, err = TrainAndEvaluateContext(ctx, ds, DefaultModels(1), 0.2, 1, func() { fits++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fits != 0 {
		t.Fatalf("%d fits ran under a cancelled context", fits)
	}
	// Cancellation mid-training stops between fits.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	fits = 0
	_, _, err = TrainAndEvaluateContext(ctx, ds, DefaultModels(1), 0.2, 1, func() {
		fits++
		if fits == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fits != 3 {
		t.Fatalf("fits after cancellation = %d, want exactly 3", fits)
	}
	if guard.ClassOf(errors.Unwrap(err)) == guard.Canceled {
		// the wrapped cause is context.Canceled; ClassOf on the full error
		// must agree
		if got := guard.ClassOf(err); got != guard.Canceled {
			t.Fatalf("class = %v, want Canceled", got)
		}
	}
}

// TestWorkflowPipelineDeadline: an expired whole-pipeline deadline stops the
// run and classifies as Timeout, whichever stage it lands in.
func TestWorkflowPipelineDeadline(t *testing.T) {
	opts := guardedOpts()
	opts.Repeats = 50 // enough workload to outlive a tiny deadline
	opts.Guard = guard.PipelineOptions{
		Deadline: 5 * time.Millisecond,
		Stage:    guard.StageOptions{Grace: 10 * time.Second},
	}
	res, err := RunWorkflowContext(context.Background(), opts)
	if err == nil {
		t.Fatal("workflow beat a 5ms deadline over 50 BFS roots")
	}
	if got := guard.ClassOf(err); got != guard.Timeout {
		t.Fatalf("class = %v, want Timeout (%v)", got, err)
	}
	if res == nil || res.Supervision == nil || len(res.Supervision.Stages) == 0 {
		t.Fatal("no supervision report")
	}
}
