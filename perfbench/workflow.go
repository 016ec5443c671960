package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/guard"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

// workflowSize is the input of one Figure 1 pass: the BFS workload graph
// and the design space swept over its trace.
type workflowSize struct {
	Vertices   int
	EdgeFactor int
	Space      dse.SpaceParams
	// ReplayPerType is how many design points per memory type the traced
	// run replays on its own to measure replay cost per event.
	ReplayPerType int
}

const (
	// testFrac is the paper's 80/20 train/test split.
	testFrac = 0.2
	// heapBudget arms the guard governor so the Supervision report records
	// the peak heap; the workloads stay far below it, so it never sheds
	// workers.
	heapBudget = 4 << 30
	// paperFailureSeed picks which design points the seeded paper failure
	// rate crashes, as cmd/dse does. It stays fixed across input seeds:
	// the paper's crashes belong to configurations, not to the graph.
	paperFailureSeed = 1
	// replayReps is how often the traced run replays each sampled point
	// after one untimed replay has built the trace's partition.
	replayReps = 3
)

// subSpace is the 26-point slice of the paper's space that daemon-jobs
// sweeps: one CPU and one controller frequency, 2 or 4 channels.
func subSpace() dse.SpaceParams {
	return dse.SpaceParams{CPUFreqsMHz: []float64{3000}, CtrlFreqsMHz: []float64{1250}}
}

// workflowOptions maps a workload and seed to the pipeline's inputs. The
// seed picks the graph, the BFS root, the train/test split and the models'
// own seeds.
func workflowOptions(size workflowSize, seed int64, models []dse.ModelSpec) dse.WorkflowOptions {
	return dse.WorkflowOptions{
		Vertices:   size.Vertices,
		EdgeFactor: size.EdgeFactor,
		Seed:       seed,
		Repeats:    1,
		SysConfig:  sysim.DefaultConfig(),
		Space:      size.Space,
		Sweep:      dse.SweepOptions{FailureRate: dse.PaperFailureRate, FailureSeed: paperFailureSeed},
		TestFrac:   testFrac,
		SplitSeed:  seed,
		Models:     models,
		Guard:      guard.PipelineOptions{Budget: guard.Budget{HeapSoftBytes: heapBudget}},
	}
}

// passResult is what one pass produced, reduced to what the benchmark
// checks and reports.
type passResult struct {
	digests   map[string]string
	events    int
	points    int
	failed    int
	retried   int
	survivors int
	meanR2    float64
	// guardPeakMB is the Supervision report's peak heap.
	guardPeakMB float64
	// allocs is the heap allocations of the models' Fit calls (traced
	// passes only).
	allocs uint64
}

func summarize(records []dse.RunRecord, table []dse.ModelPerf, rec dse.Recommendations, events int) (*passResult, error) {
	rd, err := recordsDigest(records)
	if err != nil {
		return nil, err
	}
	p := &passResult{
		digests: map[string]string{"records": rd, "table1": table1Digest(table), "recommend": recommendDigest(rec)},
		events:  events,
		points:  len(records),
		meanR2:  meanR2(table),
	}
	for _, r := range records {
		if r.Failed {
			p.failed++
		} else {
			p.survivors++
		}
		if r.Attempts > 1 {
			p.retried += r.Attempts - 1
		}
	}
	return p, nil
}

// stageSpans names the span of each stage of dse.RunWorkflowContext's
// Supervision report.
var stageSpans = map[string]string{
	"workload":       spanSysim,
	"trace-prep":     spanPrepare,
	"sweep":          spanSweep,
	"invariant-gate": spanGate,
	"dataset":        spanDataset,
	"train":          spanTrain,
	"recommend":      spanRecommend,
}

// runPass is what a user runs: dse.RunWorkflowContext from the workload
// spec to the §IV-B recommendations. With tm it trains tm's wrapped models
// and records the pass's spans in tr once the pass has ended: the root
// span, one span per stage, and the models' fit and predict spans under
// the train span. The stages run one after another, so their spans are
// laid end to end from the pass's start with the durations of the
// Supervision report; the short gaps between stages count as the pass's
// self time.
func runPass(ctx context.Context, size workflowSize, seed int64, tr *tracer, tm *timedModels, op string) (*passResult, error) {
	models := dse.DefaultModels(seed)
	if tm != nil {
		models = tm.specs
	}
	start := time.Now()
	res, err := dse.RunWorkflowContext(ctx, workflowOptions(size, seed, models))
	end := time.Now()
	if err != nil {
		return nil, err
	}
	p, err := summarize(res.Records, res.Table1, res.Recommendation, res.TraceEvents)
	if err != nil {
		return nil, err
	}
	p.guardPeakMB = float64(res.Supervision.PeakHeapBytes) / (1 << 20)
	if tm == nil {
		return p, nil
	}
	root := tr.record(op, 0, spanPass, "", start, end)
	at := start
	for _, s := range res.Supervision.Stages {
		name := stageSpans[s.Name]
		if name == "" {
			name = s.Name
		}
		id := tr.record(op, root, name, "", at, at.Add(s.Duration))
		if s.Name == "train" {
			p.allocs = tm.flush(tr, op, id)
		}
		at = at.Add(s.Duration)
	}
	return p, nil
}

// sampleLayers measures, once before the traced run's passes, what does
// not vary between passes: it prepares the run's trace and sweeps it as a
// pass does for the partition-cache counters, then replays a fixed sample
// of points on it for the replay cost per event. The sweep's gated records
// are checked like a pass's.
func sampleLayers(ctx context.Context, size workflowSize, seed int64, tr *tracer, exp *expectations, out *outcome) error {
	opts := workflowOptions(size, seed, nil)
	machine, _, err := sysim.PaperWorkloadTraceContext(ctx, opts.SysConfig, opts.Vertices, opts.EdgeFactor, seed, opts.Repeats, nil)
	if err != nil {
		return fmt.Errorf("system simulation: %w", err)
	}
	pt, err := memsim.PrepareSource(machine.TraceSource())
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sweep := opts.Sweep
	sweep.FootprintLines = int(machine.Layout().Footprint()) / 64
	points := dse.EnumerateSpace(opts.Space)
	records, err := dse.SweepPreparedContext(ctx, pt, points, sweep)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	ps := pt.PartitionCacheStats()
	if _, err := dse.ApplyInvariantGate(records, int64(pt.Len())); err != nil {
		return fmt.Errorf("invariant gate: %w", err)
	}
	rd, err := recordsDigest(records)
	if err != nil {
		return err
	}
	out.attempted++
	if msg := exp.check(map[string]string{"records": rd}); msg != "" {
		out.wrong("layer sample sweep: " + msg)
	}
	v := out.values
	v["memsim.partition_cache_hit_ratio"] = ratio(float64(ps.Hits), float64(ps.Hits+ps.Misses))
	v["memsim.partition_builds"] = float64(ps.Misses)
	return replaySample(tr, pt, points, sweep.FootprintLines, size.ReplayPerType, v)
}

// runWorkflow measures back-to-back passes of one workflow workload.
func runWorkflow(ctx context.Context, cfg runConfig) (*outcome, error) {
	size := cfg.Workflow
	out := newOutcome()
	exp := newExpectations(cfg.Pins)
	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	defer hs.close()
	heap := startHeapSampler()
	defer heap.close()

	// Set-up, repeated: one pass on DefaultSeed, whatever the run's seed,
	// checked against that seed's pinned digests, so that a wrong output
	// fails the run on every seed. It also warms the process up.
	var setups, timings []timing
	for i := 0; i < cfg.Setups; i++ {
		hs.sample()
		runtime.GC()
		start := time.Now()
		p, err := runPass(ctx, size, DefaultSeed, nil, nil, "")
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, timing{time.Since(start).Seconds(), hs.mark()})
		out.attempted++
		if msg := checkPinned(cfg.RefPins, p.digests); msg != "" {
			out.wrong(fmt.Sprintf("set-up pass on seed %d: %s", DefaultSeed, msg))
		}
	}

	var tr *tracer
	var tm *timedModels
	if cfg.Traced {
		tr = newTracer()
		tm = newTimedModels(dse.DefaultModels(cfg.Seed))
		out.spans = tr
		if err := sampleLayers(ctx, size, cfg.Seed, tr, exp, out); err != nil {
			return nil, fmt.Errorf("layer sample: %w", err)
		}
	}
	var peaks, plainLat, tracedLat, guardPeaks []float64
	var tracedOps []string
	var per []*passResult
	deadline := time.Now().Add(cfg.Duration)
	for n := 0; n < cfg.MinOps || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A traced run alternates untraced and traced passes; the
		// difference between the two is the tracing overhead.
		traced := cfg.Traced && n%2 == 1
		op := fmt.Sprintf("pass-%d", n)
		passModels := (*timedModels)(nil)
		if traced {
			passModels = tm
		}
		hs.sample()
		runtime.GC()
		heap.take()
		start := time.Now()
		p, err := runPass(ctx, size, cfg.Seed, tr, passModels, op)
		d := time.Since(start).Seconds()
		peak := heap.take()
		out.attempted++
		if err != nil {
			out.fail(fmt.Sprintf("%s: %v", op, err))
			continue
		}
		if msg := exp.check(p.digests); msg != "" {
			out.wrong(fmt.Sprintf("%s: %s", op, msg))
			continue
		}
		timings = append(timings, timing{d, hs.mark()})
		peaks = append(peaks, peak)
		if traced {
			tracedLat = append(tracedLat, d)
			tracedOps = append(tracedOps, op)
			per = append(per, p)
		} else {
			plainLat = append(plainLat, d)
			guardPeaks = append(guardPeaks, p.guardPeakMB)
		}
	}

	hs.sample()

	v := out.values
	scaleTimes(v, hs, setups, timings)
	v["peak_heap_mb"] = median(peaks)
	if !cfg.Traced {
		return out, nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	stageMedian := func(name, detail string) float64 {
		return median(opTotals(spans, tracedOps, name, detail, nil))
	}
	perPass := func(f func(p *passResult) float64) float64 {
		xs := make([]float64, len(per))
		for i, p := range per {
			xs[i] = f(p)
		}
		return median(xs)
	}
	v["trace_overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
	v["guard.peak_heap_mb"] = median(guardPeaks)
	v["sysim.trace_s"] = stageMedian(spanSysim, "")
	v["sysim.events"] = perPass(func(p *passResult) float64 { return float64(p.events) })
	v["memsim.prepare_s"] = stageMedian(spanPrepare, "")
	sweepS := opTotals(spans, tracedOps, spanSweep, "", nil)
	rates := make([]float64, len(per))
	for i, p := range per {
		rates[i] = ratio(float64(p.points), sweepS[i])
	}
	v["dse.sweep_s"] = median(sweepS)
	v["dse.points_per_s"] = median(rates)
	v["dse.points_failed"] = perPass(func(p *passResult) float64 { return float64(p.failed) })
	v["dse.points_retried"] = perPass(func(p *passResult) float64 { return float64(p.retried) })
	v["dse.survivor_ratio"] = perPass(func(p *passResult) float64 { return ratio(float64(p.survivors), float64(p.points)) })
	v["dse.gate_s"] = stageMedian(spanGate, "")
	v["dse.dataset_s"] = stageMedian(spanDataset, "")
	v["dse.recommend_s"] = stageMedian(spanRecommend, "")
	v["ml.train_s"] = stageMedian(spanTrain, "")
	for _, m := range dse.DefaultModels(cfg.Seed) {
		v["ml.fit_s."+m.Name] = stageMedian(spanFit, m.Name)
	}
	v["ml.predict_s"] = stageMedian(spanPredict, "")
	v["ml.allocs_per_train"] = perPass(func(p *passResult) float64 { return float64(p.allocs) })
	v["ml.table1_mean_r2"] = perPass(func(p *passResult) float64 { return p.meanR2 })
	for _, s := range selfTimeSpans {
		v["self_s."+s] = median(opTotals(spans, tracedOps, s, "", self))
	}
	return out, nil
}

// replaySample replays a fixed sample of design points, ReplayPerType per
// memory type spread evenly over the space's order, through
// Simulator.RunPrepared and reports the median host time per trace event
// for each type.
func replaySample(tr *tracer, pt *memsim.PreparedTrace, points []dse.DesignPoint, footprintLines, perType int, v map[string]float64) error {
	byType := map[memsim.MemType][]dse.DesignPoint{}
	for _, p := range points {
		byType[p.Type] = append(byType[p.Type], p)
	}
	for _, t := range []memsim.MemType{memsim.DRAM, memsim.NVM, memsim.Hybrid} {
		ps := byType[t]
		var nsPerEvent []float64
		for i := 0; i < perType && len(ps) > 0; i++ {
			p := ps[i*len(ps)/perType]
			sim, err := memsim.New(p.Config(footprintLines))
			if err != nil {
				return fmt.Errorf("replay sample %s: %w", p.ID(), err)
			}
			if _, err := sim.RunPrepared(pt); err != nil {
				return fmt.Errorf("replay sample %s: %w", p.ID(), err)
			}
			for r := 0; r < replayReps; r++ {
				start := time.Now()
				_, err := sim.RunPrepared(pt)
				end := time.Now()
				if err != nil {
					return fmt.Errorf("replay sample %s: %w", p.ID(), err)
				}
				tr.record("replay-"+p.ID(), 0, spanReplay, t.String(), start, end)
				nsPerEvent = append(nsPerEvent, float64(end.Sub(start).Nanoseconds())/float64(pt.Len()))
			}
		}
		v["memsim.replay_ns_per_event."+t.String()] = median(nsPerEvent)
	}
	return nil
}
