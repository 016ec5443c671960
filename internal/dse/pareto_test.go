package dse

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
)

func TestParetoFrontBasics(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoFront(records, DefaultObjectives())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 || len(front) > len(records) {
		t.Fatalf("front size = %d of %d", len(front), len(records))
	}
	// No front member may be dominated by any record.
	objIdx := map[string]int{}
	for i, n := range memsim.MetricNames {
		objIdx[n] = i
	}
	vec := func(r RunRecord) []float64 {
		m := r.Result.MetricVector()
		return []float64{m[objIdx["Power"]], -m[objIdx["Bandwidth"]], m[objIdx["AvgLatency"]], m[objIdx["TotalLatency"]]}
	}
	for _, f := range front {
		fv := vec(f)
		for _, r := range Survivors(records) {
			if r.Point.ID() == f.Point.ID() {
				continue
			}
			if dominates(vec(r), fv) {
				t.Fatalf("front member %s dominated by %s", f.Point.ID(), r.Point.ID())
			}
		}
	}
}

func TestParetoFrontSingleObjective(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(smallSpace())
	records, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoFront(records, []Objective{{Metric: "Power"}})
	if err != nil {
		t.Fatal(err)
	}
	// A single minimize objective leaves only the global minimum (or ties).
	var minPower float64 = -1
	for _, r := range Survivors(records) {
		p := r.Result.AvgPowerPerChannel
		if minPower < 0 || p < minPower {
			minPower = p
		}
	}
	for _, f := range front {
		if f.Result.AvgPowerPerChannel != minPower {
			t.Fatalf("front member power %v != min %v", f.Result.AvgPowerPerChannel, minPower)
		}
	}
}

func TestParetoFrontErrors(t *testing.T) {
	if _, err := ParetoFront(nil, DefaultObjectives()); err == nil {
		t.Fatal("expected no-data error")
	}
	pt := smallTrace(t)
	records, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(smallSpace()), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParetoFront(records, nil); err == nil {
		t.Fatal("expected no-objectives error")
	}
	if _, err := ParetoFront(records, []Objective{{Metric: "nope"}}); err == nil {
		t.Fatal("expected unknown-metric error")
	}
}

func TestDominates(t *testing.T) {
	if !dominates([]float64{1, 1}, []float64{2, 2}) {
		t.Fatal("strict domination missed")
	}
	if !dominates([]float64{1, 2}, []float64{2, 2}) {
		t.Fatal("partial-strict domination missed")
	}
	if dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Fatal("trade-off wrongly dominated")
	}
	if dominates([]float64{2, 2}, []float64{2, 2}) {
		t.Fatal("equal vectors must not dominate")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pt := smallTrace(t)
	records, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(smallSpace()), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("rows = %d, want %d", got.Len(), ds.Len())
	}
	for i := range ds.X {
		for j := range ds.X[i] {
			if got.X[i][j] != ds.X[i][j] {
				t.Fatalf("X[%d][%d] = %v, want %v", i, j, got.X[i][j], ds.X[i][j])
			}
		}
	}
	for _, name := range memsim.MetricNames {
		for i := range ds.Y[name] {
			if got.Y[name][i] != ds.Y[name][i] {
				t.Fatalf("Y[%s][%d] mismatch", name, i)
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected error for nil dataset")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty csv")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("expected error for wrong column count")
	}
	header := strings.Join(append(append([]string{}, FeatureNames...), memsim.MetricNames...), ",")
	if _, err := ReadCSV(strings.NewReader(header + "\nnot,enough\n")); err == nil {
		t.Fatal("expected error for short row")
	}
	badVal := header + "\n" + strings.Repeat("x,", len(FeatureNames)+len(memsim.MetricNames)-1) + "x\n"
	if _, err := ReadCSV(strings.NewReader(badVal)); err == nil {
		t.Fatal("expected error for non-numeric value")
	}
}

func TestCompareWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload comparison in -short mode")
	}
	specs := []WorkloadSpec{
		{Kind: WorkloadBFS, Vertices: 128, EdgeFactor: 4, Seed: 1},
		{Kind: WorkloadPageRank, Vertices: 128, EdgeFactor: 4, Seed: 1, PRIters: 2},
		{Kind: WorkloadCC, Vertices: 128, EdgeFactor: 4, Seed: 1},
	}
	comps, err := CompareWorkloads(context.Background(), sysim.DefaultConfig(), specs, smallSpace(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	for _, c := range comps {
		if c.TraceEvents == 0 {
			t.Fatalf("%s produced no events", c.Spec.Label())
		}
		if len(c.Figure2) == 0 {
			t.Fatalf("%s has no figure2 rows", c.Spec.Label())
		}
	}
	var buf bytes.Buffer
	RenderWorkloadComparison(&buf, comps)
	if !strings.Contains(buf.String(), "bfs-n128-ef4") {
		t.Fatalf("render missing workload label:\n%s", buf.String())
	}
}

func TestTraceWorkloadErrors(t *testing.T) {
	if _, _, err := TraceWorkload(sysim.DefaultConfig(), WorkloadSpec{Kind: "nope", Vertices: 64, EdgeFactor: 4}); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if _, _, err := TraceWorkload(sysim.DefaultConfig(), WorkloadSpec{Kind: WorkloadBFS, Vertices: 1, EdgeFactor: 4}); err == nil {
		t.Fatal("expected graph error")
	}
	if _, err := CompareWorkloads(context.Background(), sysim.DefaultConfig(), nil, smallSpace(), SweepOptions{}); err == nil {
		t.Fatal("expected no-workloads error")
	}
}

func TestFeatureImportanceReport(t *testing.T) {
	pt := smallTrace(t)
	records, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400, 1600},
		Channels:     []int{2, 4},
	}), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(records)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := FeatureImportanceReport(ds, "Power", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != len(FeatureNames) {
		t.Fatalf("importances = %d", len(imps))
	}
	// NVM power is controller-frequency-dominated: ControlFreq or the
	// memory-type indicators must rank in the top three.
	topNames := map[string]bool{}
	for _, imp := range imps[:3] {
		topNames[imp.Name] = true
	}
	if !topNames["ControlFreq"] && !topNames["isDRAM"] && !topNames["isNVM"] && !topNames["isHybrid"] {
		t.Fatalf("expected frequency or type features on top, got %+v", imps[:3])
	}
	var buf bytes.Buffer
	RenderImportance(&buf, "Power", imps)
	if !strings.Contains(buf.String(), "ControlFreq") {
		t.Fatal("render missing feature names")
	}
	if _, err := FeatureImportanceReport(nil, "Power", 1); err == nil {
		t.Fatal("expected no-data error")
	}
	if _, err := FeatureImportanceReport(ds, "nope", 1); err == nil {
		t.Fatal("expected unknown-metric error")
	}
}
