package graphdse

import (
	"bytes"
	"context"
	"math"
	"testing"

	"graphdse/internal/dse"
	"graphdse/internal/graph"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// mustPrepare validates and decodes a workload trace once for replay.
func mustPrepare(t *testing.T, events []trace.Event) *memsim.PreparedTrace {
	t.Helper()
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// replay simulates one configuration over a prepared trace.
func replay(t *testing.T, cfg memsim.Config, pt *memsim.PreparedTrace) *memsim.Result {
	t.Helper()
	sim, err := memsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunPrepared(pt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineTraceFormatsAgree runs the full front half of the workflow —
// workload → sysim trace → gem5 text → parallel conversion → NVMain text —
// and verifies the memory simulator sees identical events either way.
func TestPipelineTraceFormatsAgree(t *testing.T) {
	machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 256, 8, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := machine.Trace()

	var gem5 bytes.Buffer
	if err := trace.WriteGem5(&gem5, direct, 500); err != nil {
		t.Fatal(err)
	}
	var nvmain bytes.Buffer
	if _, err := trace.ConvertParallel(gem5.Bytes(), &nvmain, 500, 4, 4096); err != nil {
		t.Fatal(err)
	}
	converted, err := trace.ReadNVMain(&nvmain)
	if err != nil {
		t.Fatal(err)
	}
	if len(converted) != len(direct) {
		t.Fatalf("converted %d events, direct %d", len(converted), len(direct))
	}

	cfg := memsim.NewNVMConfig(2, 2000, 666, 67)
	a := replay(t, cfg, mustPrepare(t, direct))
	b := replay(t, cfg, mustPrepare(t, converted))
	if a.AvgPowerPerChannel != b.AvgPowerPerChannel || a.AvgTotalLatency != b.AvgTotalLatency {
		t.Fatal("direct and converted traces simulate differently")
	}
}

// TestPipelinePaperShapesOnFullWorkload runs the paper workload end-to-end
// and asserts the headline §IV-B shape claims on the real (not synthetic)
// trace.
func TestPipelinePaperShapesOnFullWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload in -short mode")
	}
	machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 1024, 16, 42, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt := mustPrepare(t, machine.Trace())

	d := replay(t, memsim.NewDRAMConfig(2, 2000, 400), pt)
	n := replay(t, memsim.NewNVMConfig(2, 2000, 400, 40), pt)
	h := memsim.NewHybridConfig(2, 2000, 400, 40, 0.125)
	h.CacheLines = int(machine.Layout().Footprint()) / 64 / 8
	hy := replay(t, h, pt)

	if !(d.AvgPowerPerChannel > n.AvgPowerPerChannel) {
		t.Fatalf("power: DRAM %v should exceed NVM %v", d.AvgPowerPerChannel, n.AvgPowerPerChannel)
	}
	if !(d.AvgBandwidthPerBank > n.AvgBandwidthPerBank) {
		t.Fatalf("bandwidth: DRAM %v should exceed NVM %v", d.AvgBandwidthPerBank, n.AvgBandwidthPerBank)
	}
	if !(hy.AvgLatency < d.AvgLatency) {
		t.Fatalf("avg latency: hybrid %v should beat DRAM %v", hy.AvgLatency, d.AvgLatency)
	}
	if !(d.AvgTotalLatency < n.AvgTotalLatency) {
		t.Fatalf("total latency: DRAM %v should beat NVM %v", d.AvgTotalLatency, n.AvgTotalLatency)
	}

	nHigh := replay(t, memsim.NewNVMConfig(2, 2000, 1600, 160), pt)
	if !(nHigh.AvgPowerPerChannel > n.AvgPowerPerChannel) {
		t.Fatal("NVM power must grow with controller frequency")
	}
	if !(nHigh.AvgTotalLatency > n.AvgTotalLatency) {
		t.Fatal("NVM total latency (cycles) must grow with controller frequency")
	}
}

// TestPipelineSurrogateAccuracy asserts the Table I headline on a reduced
// sweep: nonlinear surrogates reach R² > 0.95 on power while linear lags.
func TestPipelineSurrogateAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 512, 8, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	points := dse.EnumerateSpace(dse.SpaceParams{
		CPUFreqsMHz:  []float64{2000, 3000, 5000, 6500},
		CtrlFreqsMHz: []float64{400, 1600},
		Channels:     []int{2, 4},
	})
	records, err := dse.SweepPreparedContext(context.Background(), mustPrepare(t, machine.Trace()), points, dse.SweepOptions{
		FootprintLines: int(machine.Layout().Footprint()) / 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dse.BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	table, _, err := dse.TrainAndEvaluateContext(context.Background(), ds, dse.DefaultModels(1), 0.2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	perf := map[string]dse.ModelPerf{}
	for _, p := range table {
		if p.Metric == "Power" {
			perf[p.Model] = p
		}
	}
	if perf["SVM"].R2 < 0.95 {
		t.Fatalf("SVM power R² = %v, want > 0.95", perf["SVM"].R2)
	}
	if perf["RF"].R2 < 0.95 {
		t.Fatalf("RF power R² = %v", perf["RF"].R2)
	}
	if perf["Linear"].MSE <= perf["SVM"].MSE {
		t.Fatalf("linear (%v) should not beat SVM (%v) on power", perf["Linear"].MSE, perf["SVM"].MSE)
	}
}

// TestPipelineGraph500KernelFeedsWorkflow sanity-checks that the native
// Graph500 harness and the instrumented BFS agree on reachability for the
// same graph.
func TestPipelineGraph500KernelFeedsWorkflow(t *testing.T) {
	g, err := graph.GenerateGTGraph(512, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BFSTopDown(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sysim.NewMachine(sysim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sysim.TraceBFS(m, g, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != ref.Visited {
		t.Fatalf("instrumented visited %d, reference %d", res.Visited, ref.Visited)
	}
}

// TestPipelineSurrogateExtrapolation checks the end use-case: a surrogate
// trained on the sweep predicts an unseen configuration close to what the
// simulator reports.
func TestPipelineSurrogateExtrapolation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 512, 8, 9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt := mustPrepare(t, machine.Trace())
	foot := int(machine.Layout().Footprint()) / 64
	points := dse.EnumerateSpace(dse.SpaceParams{})
	// Hold out one NVM configuration entirely.
	holdoutIdx := -1
	for i, p := range points {
		if p.Type == memsim.NVM && p.CtrlFreqMHz == 666 && p.CPUFreqMHz == 3000 && p.Channels == 2 && p.TRCD == 67 {
			holdoutIdx = i
			break
		}
	}
	if holdoutIdx < 0 {
		t.Fatal("holdout point not found")
	}
	holdout := points[holdoutIdx]
	points = append(points[:holdoutIdx], points[holdoutIdx+1:]...)

	records, err := dse.SweepPreparedContext(context.Background(), pt, points, dse.SweepOptions{FootprintLines: foot})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dse.BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	var xs ml.MinMaxScaler
	X, err := xs.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ds.Metric("Power")
	if err != nil {
		t.Fatal(err)
	}
	svr := ml.NewSVR()
	if err := svr.Fit(X, y); err != nil {
		t.Fatal(err)
	}

	pred := svr.Predict(xs.TransformRow(holdout.FeatureVector()))
	truth := replay(t, holdout.Config(foot), pt)
	relErr := math.Abs(pred-truth.AvgPowerPerChannel) / truth.AvgPowerPerChannel
	if relErr > 0.15 {
		t.Fatalf("surrogate off by %.1f%% on held-out config (pred %v, truth %v)",
			relErr*100, pred, truth.AvgPowerPerChannel)
	}
}
