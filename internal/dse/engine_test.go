package dse

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphdse/internal/memsim"
)

// tinySpace keeps chaos tests fast: 1 cell × 13 = 13 points.
func tinySpace() SpaceParams {
	return SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5, 0.75},
	}
}

func TestWorkerPoolBoundedConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	testHookPointStart = func(DesignPoint) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
	}
	testHookPointDone = func(DesignPoint) { cur.Add(-1) }
	defer func() { testHookPointStart, testHookPointDone = nil, nil }()

	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("worker pool ran %d points concurrently, want <= 2", p)
	}
}

func TestSweepPanicIsolation(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultCrash, Rate: 0.4, Seed: 9}}}
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	crashed, survived := 0, 0
	for _, r := range records {
		want := inj.Decide(r.Point, 1) == FaultCrash
		if want != r.Failed {
			t.Fatalf("point %s: failed=%v, injector says %v", r.Point.ID(), r.Failed, want)
		}
		if r.Failed {
			crashed++
			if r.FaultClass != FaultCrash {
				t.Fatalf("point %s: class %s, want crash", r.Point.ID(), r.FaultClass)
			}
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("point %s: error %v is not a PanicError", r.Point.ID(), r.Err)
			}
			if !strings.Contains(pe.Error(), "injected crash") {
				t.Fatalf("unexpected panic message: %v", pe)
			}
		} else {
			survived++
			if r.Result == nil {
				t.Fatalf("survivor %s has no result", r.Point.ID())
			}
		}
	}
	if crashed == 0 || survived == 0 {
		t.Fatalf("expected a mix of crashes and survivors, got %d/%d", crashed, survived)
	}
}

func TestSweepHangHitsDeadline(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultHang, Rate: 0.3, Seed: 5}}}
	start := time.Now()
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj, Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("sweep took %v, hangs not bounded by deadline", elapsed)
	}
	hung := 0
	for _, r := range records {
		if inj.Decide(r.Point, 1) != FaultHang {
			if r.Failed {
				t.Fatalf("healthy point %s failed: %v", r.Point.ID(), r.Err)
			}
			continue
		}
		hung++
		if !r.Failed || r.FaultClass != FaultHang {
			t.Fatalf("hung point %s: failed=%v class=%s", r.Point.ID(), r.Failed, r.FaultClass)
		}
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("hung point %s: error %v, want deadline exceeded", r.Point.ID(), r.Err)
		}
	}
	if hung == 0 {
		t.Fatal("injector selected no hang points; pick another seed")
	}
}

func TestSweepHangDefaultsTimeout(t *testing.T) {
	// A hang-class injector with no Timeout must not deadlock the sweep.
	pt := smallTrace(t)
	points := EnumerateSpace(tinySpace())[:1]
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultHang, Rate: 0.999999, Seed: 5}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj}); !errors.Is(err, ErrAllFailed) {
			t.Errorf("want ErrAllFailed, got %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep deadlocked on injected hang without Timeout")
	}
}

func TestSweepTransientRetryRecovers(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	// Every point fails its first attempt; the first retry succeeds.
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultTransient, Rate: 0.999999, Times: 1}}}
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{
		Faults: inj, Retries: 2, BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if r.Failed {
			t.Fatalf("point %s failed despite retries: %v", r.Point.ID(), r.Err)
		}
		if r.Attempts != 2 {
			t.Fatalf("point %s attempts = %d, want 2", r.Point.ID(), r.Attempts)
		}
	}

	// Without retries the same faults are terminal and classified transient.
	records, err = SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj})
	if !errors.Is(err, ErrAllFailed) {
		t.Fatalf("want ErrAllFailed without retries, got %v", err)
	}
	for _, r := range records {
		if !r.Failed || r.FaultClass != FaultTransient || !errors.Is(r.Err, ErrTransient) {
			t.Fatalf("point %s: failed=%v class=%s err=%v", r.Point.ID(), r.Failed, r.FaultClass, r.Err)
		}
	}
}

func TestSweepCorruptMetricsQuarantined(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultCorrupt, Rate: 0.3, Seed: 2}}}
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := 0
	for _, r := range records {
		if inj.Decide(r.Point, 1) != FaultCorrupt {
			continue
		}
		corrupt++
		if !r.Failed || r.FaultClass != FaultCorrupt {
			t.Fatalf("corrupt point %s: failed=%v class=%s", r.Point.ID(), r.Failed, r.FaultClass)
		}
		if !errors.Is(r.Err, memsim.ErrInvalidMetrics) {
			t.Fatalf("corrupt point %s: error %v, want ErrInvalidMetrics", r.Point.ID(), r.Err)
		}
	}
	if corrupt == 0 {
		t.Fatal("injector selected no corrupt points; pick another seed")
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != len(points)-corrupt {
		t.Fatalf("dataset rows = %d, want %d", ds.Len(), len(points)-corrupt)
	}
}

// TestSweepChaosAllClasses layers every fault class and asserts the sweep
// finishes with exactly the survivor set the injector predicts.
func TestSweepChaosAllClasses(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	inj := &FaultInjector{Rules: []FaultRule{
		{Class: FaultCrash, Rate: 0.12, Seed: 11},
		{Class: FaultHang, Rate: 0.12, Seed: 22},
		{Class: FaultCorrupt, Rate: 0.12, Seed: 33},
		{Class: FaultTransient, Rate: 0.3, Seed: 44, Times: 1},
	}}
	const retries = 1
	expectSurvive := func(p DesignPoint) bool {
		switch inj.Decide(p, 1) {
		case FaultNone:
			return true
		case FaultTransient:
			// One retry: the point survives iff attempt 2 is clean.
			return inj.Decide(p, 2) == FaultNone
		default:
			return false
		}
	}
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{
		Faults:      inj,
		Retries:     retries,
		Timeout:     300 * time.Millisecond,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSurvivors := 0
	for i, r := range records {
		want := expectSurvive(points[i])
		if want {
			wantSurvivors++
		}
		if r.Failed == want {
			t.Fatalf("point %s: survived=%v, want %v (class %s, err %v)",
				r.Point.ID(), !r.Failed, want, r.FaultClass, r.Err)
		}
	}
	if got := len(Survivors(records)); got != wantSurvivors {
		t.Fatalf("survivors = %d, want %d", got, wantSurvivors)
	}
	if wantSurvivors == len(points) {
		t.Fatal("chaos injected no faults; pick other seeds")
	}
	log := BuildFailureLog(records)
	if len(log) != len(points)-wantSurvivors {
		t.Fatalf("failure log has %d entries, want %d", len(log), len(points)-wantSurvivors)
	}
}

func TestSweepMinSurvivors(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(tinySpace())
	inj := &FaultInjector{Rules: []FaultRule{{Class: FaultCrash, Rate: 0.7, Seed: 3}}}
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj, MinSurvivors: len(points)})
	var sf *SweepFailureError
	if !errors.As(err, &sf) {
		t.Fatalf("want *SweepFailureError, got %v", err)
	}
	if sf.Survivors != len(Survivors(records)) || sf.Total != len(points) || sf.MinSurvivors != len(points) {
		t.Fatalf("bad summary: %+v", sf)
	}
	if sf.ByClass["crash"] == 0 {
		t.Fatalf("summary missing crash count: %+v", sf.ByClass)
	}
	if !strings.Contains(sf.Error(), "crash=") {
		t.Fatalf("summary text missing class counts: %s", sf)
	}

	// The same sweep with an achievable minimum proceeds.
	if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Faults: inj, MinSurvivors: 1}); err != nil {
		t.Fatalf("achievable minimum should pass: %v", err)
	}
}

func TestSweepContextCancelled(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	records, err := SweepPreparedContext(ctx, pt, points, SweepOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, r := range records {
		if !r.Failed {
			t.Fatal("pre-cancelled sweep must not report survivors")
		}
	}
}

func TestBuildDatasetQuarantinesInvalidSurvivors(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(tinySpace())[:4]
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Poison one surviving record's metrics behind the engine's back.
	bad := *records[1].Result
	bad.AvgBandwidthPerBank = math.Inf(1)
	records[1].Result = &bad
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Quarantined != 1 || ds.Len() != len(points)-1 {
		t.Fatalf("quarantined=%d rows=%d, want 1 and %d", ds.Quarantined, ds.Len(), len(points)-1)
	}

	// All-poisoned survivors degrade to ErrNoData.
	for i := range records {
		bad := *records[i].Result
		bad.AvgPowerPerChannel = math.NaN()
		records[i].Result = &bad
	}
	if _, err := BuildDataset(records); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData for fully-quarantined sweep, got %v", err)
	}
}

func TestRenderFailureLog(t *testing.T) {
	var sb strings.Builder
	RenderFailureLog(&sb, nil)
	if !strings.Contains(sb.String(), "all configurations survived") {
		t.Fatalf("empty log render: %q", sb.String())
	}
	sb.Reset()
	RenderFailureLog(&sb, []FailureRecord{
		{PointID: "a", Class: "crash", Attempts: 1, Err: "boom"},
		{PointID: "b", Class: "transient", Attempts: 3, Err: "flaky"},
	})
	out := sb.String()
	for _, want := range []string{"2 configurations lost", "crash=1", "transient=1", "boom", "attempts=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("failure log render missing %q:\n%s", want, out)
		}
	}
}

// TestBackoffDelayJitterBounds: the retry delay is base·2^(attempt−1) plus
// jitter in [0, d/2], capped at maxBackoff — never less than the exponential
// floor (which would thrash) and never more than 1.5× (which would stall).
func TestBackoffDelayJitterBounds(t *testing.T) {
	p := EnumerateSpace(tinySpace())[0]
	for attempt := 1; attempt <= 8; attempt++ {
		base := 10 * time.Millisecond
		floor := base << uint(attempt-1)
		if floor > maxBackoff {
			floor = maxBackoff
		}
		d := backoffDelay(base, attempt, p)
		if d < floor || d > floor+floor/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, floor, floor+floor/2)
		}
		// Deterministic within a process: retries are reproducible.
		if again := backoffDelay(base, attempt, p); again != d {
			t.Fatalf("attempt %d: delay not stable within process (%v vs %v)", attempt, d, again)
		}
	}
	// Distinct points de-correlate: across the space, at least two points
	// must disagree on their attempt-3 delay (all-equal would mean the
	// jitter hash is inert and the fleet retries in lockstep).
	points := EnumerateSpace(tinySpace())
	first := backoffDelay(10*time.Millisecond, 3, points[0])
	varied := false
	for _, q := range points[1:] {
		if backoffDelay(10*time.Millisecond, 3, q) != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("jitter identical across every design point")
	}
}
