package dse

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphdse/internal/guard"
	"graphdse/internal/memsim"
)

// ErrTransient marks failures worth retrying (injected transient faults and
// anything else classified as recoverable). It aliases guard's canonical
// sentinel so guard.ClassOf sees sweep failures and stage failures in one
// taxonomy.
var ErrTransient = guard.ErrTransient

// PanicError wraps a panic recovered inside a supervised worker so the
// crash of one design point becomes a structured record instead of killing
// the whole sweep process. It is guard's PanicError: sweep-level and
// stage-level panics classify identically (guard.Fatal).
type PanicError = guard.PanicError

// defaultHangTimeout bounds injected hangs when the caller set no Timeout,
// so a chaos run can never deadlock the sweep.
const defaultHangTimeout = time.Second

// maxBackoff caps the exponential retry delay.
const maxBackoff = 2 * time.Second

// Test hooks: called (when non-nil) as each dispatched point starts and
// finishes, so tests can observe worker-pool concurrency and interrupt
// sweeps at deterministic progress marks.
var (
	testHookPointStart func(p DesignPoint)
	testHookPointDone  func(p DesignPoint)
)

// sweepEngine is the resilient sweep core: a bounded worker pool pulls
// points from a channel (never spawning more goroutines than workers), each
// point runs supervised with panic recovery, a per-point deadline, bounded
// retry with backoff for transient faults, and metric validation; completed
// records stream to an optional JSON-lines checkpoint.
func sweepEngine(ctx context.Context, pt *memsim.PreparedTrace, points []DesignPoint, opts SweepOptions) ([]RunRecord, error) {
	if pt == nil || pt.Len() == 0 {
		return nil, memsim.ErrEmptyTrace
	}
	if len(points) == 0 {
		return nil, errors.New("dse: empty design space")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Under memory pressure the governor trims the pool before it even
	// starts; workers that do start can still retire mid-sweep (below).
	workers = opts.Governor.Workers("sweep", workers)
	inj := opts.injector()
	if opts.Timeout <= 0 && inj.hasClass(FaultHang) {
		opts.Timeout = defaultHangTimeout
	}

	var resumed map[string]RunRecord
	var ckpt *checkpointWriter
	if opts.CheckpointPath != "" {
		if opts.Resume {
			var err error
			var rep *CheckpointReport
			resumed, rep, err = LoadCheckpointReportFS(opts.fs(), opts.CheckpointPath, points, opts.StrictCheckpoint)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("dse: resume: %w", err)
			}
			if err == nil && !rep.Clean() && opts.OnCheckpointSalvage != nil {
				opts.OnCheckpointSalvage(rep)
			}
		}
		var err error
		ckpt, err = openCheckpoint(opts.fs(), opts.CheckpointPath, opts.Resume)
		if err != nil {
			return nil, fmt.Errorf("dse: checkpoint: %w", err)
		}
		defer ckpt.Close()
	}

	records := make([]RunRecord, len(points))
	jobs := make(chan int)
	var done atomic.Int64
	finish := func(i int, rec RunRecord) {
		records[i] = rec
		if opts.OnRecord != nil {
			opts.OnRecord(rec)
		}
		if opts.OnPoint != nil {
			opts.OnPoint(int(done.Add(1)), len(points))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if testHookPointStart != nil {
					testHookPointStart(points[i])
				}
				finish(i, runPoint(ctx, pt, points[i], opts, inj, ckpt))
				if testHookPointDone != nil {
					testHookPointDone(points[i])
				}
				// Graceful degradation: when memory pressure lowers the
				// permitted pool size, high-indexed workers retire before
				// pulling another job. Worker 0 never retires (Limit floors
				// at 1), so the sweep always drains.
				if w > 0 && w >= opts.Governor.Limit(workers) {
					return
				}
			}
		}(w)
	}
	lastLimit := workers
feed:
	for i := range points {
		if rec, ok := resumed[points[i].ID()]; ok {
			rec.Point = points[i]
			finish(i, rec)
			continue
		}
		if cur := opts.Governor.Limit(workers); cur < lastLimit {
			opts.Governor.Record(guard.Downshift{
				Stage: "sweep", Resource: "workers",
				From: lastLimit, To: cur, Reason: opts.Governor.PressureReason(),
			})
			lastLimit = cur
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Mark points that were never dispatched; in-flight points already
		// recorded their cancellation.
		for i := range records {
			if records[i].Attempts == 0 && !records[i].FromCheckpoint {
				records[i] = RunRecord{Point: points[i], Failed: true, Err: err, Skipped: true}
			}
		}
		return records, fmt.Errorf("dse: sweep interrupted: %w", err)
	}

	survivors := 0
	for i := range records {
		if !records[i].Failed {
			survivors++
		}
	}
	if survivors == 0 {
		return records, ErrAllFailed
	}
	if opts.MinSurvivors > 0 && survivors < opts.MinSurvivors {
		return records, newSweepFailureError(records, survivors, opts.MinSurvivors)
	}
	return records, nil
}

// runPoint drives one design point to a terminal record: attempt, classify,
// retry transients with backoff, and checkpoint the outcome.
func runPoint(ctx context.Context, pt *memsim.PreparedTrace, p DesignPoint, opts SweepOptions, inj *FaultInjector, ckpt *checkpointWriter) RunRecord {
	if err := ctx.Err(); err != nil {
		return RunRecord{Point: p, Failed: true, Err: err, Skipped: true}
	}
	rec := RunRecord{Point: p}
	var res *memsim.Result
	var err error
	for attempt := 1; ; attempt++ {
		rec.Attempts = attempt
		res, err = attemptPoint(ctx, pt, p, opts, inj, attempt)
		if err == nil {
			break
		}
		if attempt > opts.Retries || !errors.Is(err, ErrTransient) || ctx.Err() != nil {
			break
		}
		if !sleepBackoff(ctx, opts.BackoffBase, attempt, p) {
			break
		}
	}
	if err != nil {
		rec.Failed = true
		rec.Err = err
		rec.FaultClass = classifyError(err)
	} else {
		rec.Result = res
	}
	// A record cut short by sweep cancellation is not a terminal outcome;
	// keep it out of the checkpoint so resume re-runs the point.
	if ckpt != nil && !errors.Is(err, context.Canceled) {
		if aerr := ckpt.Append(rec); aerr != nil && opts.OnCheckpointError != nil {
			// Best-effort by contract, but the failure is a disk-health
			// signal the daemon's governor wants to see.
			opts.OnCheckpointError(aerr)
		}
	}
	return rec
}

// attemptPoint supervises a single simulation attempt: it runs in its own
// goroutine with panic recovery and races against the per-point deadline.
// On timeout the attempt's goroutine is abandoned (Go cannot kill it) and
// its eventual result discarded — the price of containing a hung simulator.
func attemptPoint(ctx context.Context, pt *memsim.PreparedTrace, p DesignPoint, opts SweepOptions, inj *FaultInjector, attempt int) (*memsim.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	type outcome struct {
		res *memsim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if r := recover(); r != nil {
				o = outcome{nil, &PanicError{Value: r, Stack: debug.Stack()}}
			}
			ch <- o
		}()
		o.res, o.err = simulatePoint(ctx, pt, p, opts, inj, attempt)
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("dse: %s: %w", p.ID(), ctx.Err())
	}
}

// simulatePoint applies any injected fault, then runs the memory simulator
// and validates its metrics.
func simulatePoint(ctx context.Context, pt *memsim.PreparedTrace, p DesignPoint, opts SweepOptions, inj *FaultInjector, attempt int) (*memsim.Result, error) {
	fault := inj.Decide(p, attempt)
	switch fault {
	case FaultCrash:
		panic(fmt.Sprintf("injected crash for %s", p.ID()))
	case FaultHang:
		<-ctx.Done()
		return nil, fmt.Errorf("dse: %s: injected hang: %w", p.ID(), ctx.Err())
	case FaultTransient:
		return nil, fmt.Errorf("dse: %s attempt %d: %w", p.ID(), attempt, ErrTransient)
	}
	sim, err := memsim.New(p.Config(opts.FootprintLines))
	if err != nil {
		return nil, err
	}
	res, err := sim.RunPrepared(pt)
	if err != nil {
		return nil, err
	}
	switch fault {
	case FaultCorrupt:
		poisoned := *res
		poisoned.AvgPowerPerChannel = math.NaN()
		if verr := poisoned.ValidateMetrics(); verr != nil {
			return nil, fmt.Errorf("dse: %s: %w", p.ID(), verr)
		}
		return &poisoned, nil
	case FaultInvariant:
		// The subtlest corruption: the run completes, every metric is finite
		// and positive (ValidateMetrics passes), but the bandwidth exceeds
		// what the configured channel bus can physically carry. Only the
		// invariant gate between stages catches it.
		poisoned := *res
		poisoned.AvgBandwidthPerBank = 2 * memsim.PeakBandwidthPerBankMBs(&poisoned.Config) * float64(poisoned.Config.Channels)
		if verr := poisoned.ValidateMetrics(); verr != nil {
			return nil, fmt.Errorf("dse: %s: %w", p.ID(), verr)
		}
		return &poisoned, nil
	}
	// RunPrepared already validates, but guard against future simulator
	// paths that bypass it.
	if err := res.ValidateMetrics(); err != nil {
		return nil, err
	}
	return res, nil
}

// classifyError maps a terminal error onto the fault taxonomy for failure
// logs and checkpoints.
func classifyError(err error) FaultClass {
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		return FaultCrash
	case errors.Is(err, context.DeadlineExceeded):
		return FaultHang
	case errors.Is(err, ErrTransient):
		return FaultTransient
	case errors.Is(err, memsim.ErrInvalidMetrics):
		return FaultCorrupt
	case errors.Is(err, memsim.ErrPhysicalInvariant):
		return FaultInvariant
	default:
		return FaultNone
	}
}

// backoffSalt decorrelates retry schedules across processes. The jitter hash
// in backoffDelay is deterministic per (point, attempt), which keeps retries
// reproducible within a run — but a fleet of sweep processes restarted
// together after a shared crash would compute identical schedules and retry
// in lockstep against shared resources (the daemon's trace cache above all).
// Each process therefore mixes a random per-process salt into the hash.
var backoffSalt = rand.Uint64()

// backoffDelay computes base·2^(attempt−1) plus jitter in [0, d/2], capped
// at maxBackoff. The jitter is a hash of (process salt, point, attempt):
// stable within a process, different across processes.
func backoffDelay(base time.Duration, attempt int, p DesignPoint) time.Duration {
	return BackoffJitter(base, attempt, p.ID(), maxBackoff)
}

// BackoffJitter is the repository's shared retry-delay policy:
// base·2^(attempt−1) plus deterministic jitter in [0, d/2], capped at max
// (maxBackoff when max <= 0). The jitter is a hash of (process salt, key,
// attempt): stable within a process so schedules are reproducible, salted
// per process so a fleet restarted together does not retry in lockstep.
// The sweep engine keys it by design-point ID; the daemon's streaming
// client keys it by job ID for its reconnect schedule.
func BackoffJitter(base time.Duration, attempt int, key string, max time.Duration) time.Duration {
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	if max <= 0 {
		max = maxBackoff
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", backoffSalt, key, attempt)
	if half := int64(d / 2); half > 0 {
		d += time.Duration(h.Sum64() % uint64(half+1))
	}
	return d
}

// sleepBackoff waits out backoffDelay, returning false if the context was
// cancelled first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int, p DesignPoint) bool {
	t := time.NewTimer(backoffDelay(base, attempt, p))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// FailureRecord is one entry of a sweep's failure log.
type FailureRecord struct {
	PointID  string
	Class    string
	Attempts int
	Err      string
}

// BuildFailureLog extracts the failed records into a compact, render-ready
// log, sorted by point ID.
func BuildFailureLog(records []RunRecord) []FailureRecord {
	var out []FailureRecord
	for _, r := range records {
		if !r.Failed {
			continue
		}
		msg := ""
		if r.Err != nil {
			msg = r.Err.Error()
		}
		out = append(out, FailureRecord{
			PointID:  r.Point.ID(),
			Class:    r.FaultClass.String(),
			Attempts: r.Attempts,
			Err:      msg,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PointID < out[j].PointID })
	return out
}

func newSweepFailureError(records []RunRecord, survivors, min int) *SweepFailureError {
	e := &SweepFailureError{
		Survivors:    survivors,
		Total:        len(records),
		MinSurvivors: min,
		ByClass:      map[string]int{},
	}
	log := BuildFailureLog(records)
	for _, f := range log {
		e.ByClass[f.Class]++
	}
	if len(log) > 5 {
		log = log[:5]
	}
	e.Sample = log
	return e
}
