package dse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/guard"
	"graphdse/internal/memsim"
)

// RunRecord is the outcome of simulating one design point.
type RunRecord struct {
	Point  DesignPoint
	Result *memsim.Result
	// Failed marks configurations whose simulation crashed, hung past its
	// deadline, exhausted its retries, or produced invalid metrics — the
	// paper reports ~42 of 416 NVMain runs exiting with segmentation
	// faults, and the engine contains each such failure in its record.
	Failed bool
	Err    error
	// FaultClass classifies the failure (crash/hang/transient/corrupt);
	// FaultNone for healthy records and unclassified errors.
	FaultClass FaultClass
	// Attempts counts simulation attempts, >1 when transient faults were
	// retried.
	Attempts int
	// FromCheckpoint marks records adopted from a resume checkpoint rather
	// than re-simulated.
	FromCheckpoint bool
	// Skipped marks points never dispatched because the sweep was cancelled.
	Skipped bool
}

// SweepOptions controls the sweep engine.
type SweepOptions struct {
	// FootprintLines sizes hybrid DRAM caches relative to the workload (see
	// DesignPoint.Config).
	FootprintLines int
	// FailureRate in [0,1) injects deterministic simulated crashes,
	// reproducing the paper's 374-of-416 survivorship. Zero disables it.
	// It is legacy shorthand for Faults = PaperFaults(FailureRate,
	// FailureSeed) and is ignored when Faults is set.
	FailureRate float64
	// FailureSeed varies which configurations fail.
	FailureSeed uint64
	// Workers caps parallelism; <=0 uses GOMAXPROCS.
	Workers int

	// Faults composes injected fault classes (crash, hang, transient,
	// corrupt) for survivorship modes and chaos testing. Overrides
	// FailureRate when non-nil.
	Faults *FaultInjector
	// Timeout is the per-point deadline; 0 disables it (but a hang-class
	// injector forces a default so chaos runs cannot deadlock).
	Timeout time.Duration
	// Retries bounds re-attempts for transient failures (0 = no retry).
	Retries int
	// BackoffBase seeds the exponential retry backoff (default 20ms),
	// doubled per attempt with deterministic jitter.
	BackoffBase time.Duration
	// CheckpointPath appends each completed record to a JSON-lines file so
	// an interrupted sweep can resume. Empty disables checkpointing.
	CheckpointPath string
	// Resume loads CheckpointPath before sweeping and skips points whose
	// records are already present (corrupt lines are skipped and re-run).
	// Without Resume the checkpoint file is truncated.
	Resume bool
	// MinSurvivors fails the sweep with a *SweepFailureError when fewer
	// points survive; 0 only requires one survivor (ErrAllFailed otherwise).
	MinSurvivors int
	// StrictCheckpoint fails resume on the first malformed interior
	// checkpoint line instead of skipping it. A torn final line (crash
	// mid-append) is tolerated in both modes.
	StrictCheckpoint bool
	// OnCheckpointSalvage, when set, receives the load report whenever a
	// resumed checkpoint was not pristine (skipped lines or a torn tail),
	// so callers can log exactly what a damaged checkpoint cost.
	OnCheckpointSalvage func(*CheckpointReport)
	// Governor, when set, bounds the sweep's parallelism under memory
	// pressure: the pool starts at Governor.Workers("sweep", Workers) and
	// workers retire mid-sweep as pressure escalates. Nil disables
	// governance.
	Governor *guard.Governor
	// OnPoint, when set, is called after each point reaches a terminal
	// record (including adopted checkpoint records) with the completed and
	// total counts. It is the sweep's progress heartbeat; callers must make
	// it safe for concurrent use.
	OnPoint func(done, total int)
	// OnRecord, when set, receives every terminal record (including adopted
	// checkpoint records) as it lands, before the matching OnPoint call —
	// the daemon streams per-point failure-log events from it. Callers must
	// make it safe for concurrent use.
	OnRecord func(RunRecord)
	// FS is the filesystem the checkpoint reads and appends through (nil =
	// the real filesystem). The daemon threads its spool FS here so chaos
	// tests can inject ENOSPC/EIO into checkpoint writes too.
	FS artifact.FS
	// OnCheckpointError, when set, observes every failed checkpoint append.
	// Appends are best-effort — a failure degrades resumability, never
	// correctness — but the daemon's disk governor uses this signal to
	// detect a failing spool and enter degraded mode. Must be safe for
	// concurrent use.
	OnCheckpointError func(error)
}

// fs resolves the effective checkpoint filesystem.
func (o *SweepOptions) fs() artifact.FS {
	if o.FS != nil {
		return o.FS
	}
	return artifact.OS
}

// injector resolves the effective fault injector, folding the legacy
// FailureRate knob into the harness.
func (o *SweepOptions) injector() *FaultInjector {
	if o.Faults != nil {
		return o.Faults
	}
	if o.FailureRate > 0 {
		return PaperFaults(o.FailureRate, o.FailureSeed)
	}
	return nil
}

// PaperFailureRate reproduces the paper's ≈42/416 crash rate.
const PaperFailureRate = 0.101

// ErrAllFailed is returned when every configuration failed.
var ErrAllFailed = errors.New("dse: every configuration failed")

// SweepFailureError is the structured summary returned when a sweep
// completes but leaves fewer survivors than MinSurvivors requires.
type SweepFailureError struct {
	Survivors    int
	Total        int
	MinSurvivors int
	// ByClass counts failures per fault class name.
	ByClass map[string]int
	// Sample holds up to a handful of representative failure records.
	Sample []FailureRecord
}

func (e *SweepFailureError) Error() string {
	classes := make([]string, 0, len(e.ByClass))
	for c := range e.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, e.ByClass[c]))
	}
	return fmt.Sprintf("dse: %d/%d configurations survived, need >= %d (failures: %s)",
		e.Survivors, e.Total, e.MinSurvivors, strings.Join(parts, " "))
}

// SweepPreparedContext replays a prepared trace against every design point
// in parallel and returns one record per point, in input order. It never
// lets a single point kill the sweep: panics, hangs, transient errors, and
// corrupted metrics are contained in the point's record.
//
// The PreparedTrace is shared read-only by all workers, and its
// geometry-keyed partition cache means the trace is routed to channels once
// per mapping geometry (not once per point): per-point steady-state cost is
// channel simulation over pooled engine state.
//
// When ctx is cancelled, in-flight points finish as failures, undispatched
// points are marked Skipped, and the partial records are returned alongside
// ctx's error. Combined with CheckpointPath, a cancelled sweep resumes from
// its completed records.
func SweepPreparedContext(ctx context.Context, pt *memsim.PreparedTrace, points []DesignPoint, opts SweepOptions) ([]RunRecord, error) {
	return sweepEngine(ctx, pt, points, opts)
}

// Survivors filters out failed records.
func Survivors(records []RunRecord) []RunRecord {
	out := make([]RunRecord, 0, len(records))
	for _, r := range records {
		if !r.Failed {
			out = append(out, r)
		}
	}
	return out
}
