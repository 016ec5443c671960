package sysim

import (
	"context"
	"testing"

	"graphdse/internal/graph"
	"graphdse/internal/trace"
)

func paperGraph(t *testing.T) *graph.CSR {
	t.Helper()
	g, err := graph.GenerateGTGraph(256, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTraceBFSMatchesReferenceBFS(t *testing.T) {
	g := paperGraph(t)
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := TraceBFS(m, g, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := graph.BFSTopDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != ref.Visited {
		t.Fatalf("instrumented BFS visited %d, reference %d", res.Visited, ref.Visited)
	}
	if res.Iterations != ref.Iterations {
		t.Fatalf("iterations %d vs %d", res.Iterations, ref.Iterations)
	}
}

func TestTraceBFSProducesOrderedTrace(t *testing.T) {
	g := paperGraph(t)
	m, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(m, g, 3, false); err != nil {
		t.Fatal(err)
	}
	events := m.Trace()
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("trace not time-ordered at %d", i)
		}
	}
	// All addresses must land in allocated segments.
	segs := m.Layout().Segments()
	for _, e := range events {
		ok := false
		for _, s := range segs {
			if e.Addr >= s.Base && e.Addr < s.Base+s.Size+64 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("event addr %#x outside all segments", e.Addr)
		}
	}
}

func TestTraceBFSIncludeBuildAddsWrites(t *testing.T) {
	g := paperGraph(t)
	m1, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(m1, g, 0, false); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(m2, g, 0, true); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().MemWrites <= m1.Stats().MemWrites {
		t.Fatalf("build phase should add writes: %d vs %d",
			m2.Stats().MemWrites, m1.Stats().MemWrites)
	}
}

func TestTraceBFSBadRoot(t *testing.T) {
	g := paperGraph(t)
	m, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(m, g, 9999, false); err == nil {
		t.Fatal("expected root error")
	}
}

func TestTraceBFSDeterministic(t *testing.T) {
	g := paperGraph(t)
	m1, _ := NewMachine(DefaultConfig())
	m2, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(m1, g, 5, true); err != nil {
		t.Fatal(err)
	}
	if _, err := TraceBFS(m2, g, 5, true); err != nil {
		t.Fatal(err)
	}
	a, b := m1.Trace(), m2.Trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestTracePageRank(t *testing.T) {
	g := paperGraph(t)
	m, _ := NewMachine(DefaultConfig())
	res, err := TracePageRank(m, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || res.TraceEvents == 0 {
		t.Fatalf("pagerank result %+v", res)
	}
	var writes int
	for _, e := range m.Trace() {
		if e.Op == trace.Write {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("PageRank must emit writes (rank updates)")
	}
	if _, err := TracePageRank(m, g, 0); err == nil {
		t.Fatal("expected iters error")
	}
}

func TestTraceConnectedComponents(t *testing.T) {
	g := paperGraph(t)
	m, _ := NewMachine(DefaultConfig())
	res, err := TraceConnectedComponents(m, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.TraceEvents == 0 {
		t.Fatalf("cc result %+v", res)
	}
}

func TestPaperWorkloadTrace(t *testing.T) {
	m, res, err := PaperWorkloadTraceContext(context.Background(), DefaultConfig(), 1024, 16, 42, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < 512 {
		t.Fatalf("visited %d of 1024; R-MAT EF16 should have a dominant component", res.Visited)
	}
	st := trace.Summarize(m.Trace())
	if st.Events == 0 || st.Writes == 0 {
		t.Fatalf("trace stats %+v", st)
	}
	// The write share should be modest, as in the paper (~10% of reads).
	frac := float64(st.Writes) / float64(st.Reads)
	if frac <= 0 || frac > 0.8 {
		t.Fatalf("write/read ratio = %v", frac)
	}
}

func TestPaperWorkloadTraceRepeatsScaleTrace(t *testing.T) {
	m1, _, err := PaperWorkloadTraceContext(context.Background(), DefaultConfig(), 256, 8, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m3, _, err := PaperWorkloadTraceContext(context.Background(), DefaultConfig(), 256, 8, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m3.Trace()) <= 2*len(m1.Trace()) {
		t.Fatalf("3 repeats (%d events) should be much larger than 1 (%d)",
			len(m3.Trace()), len(m1.Trace()))
	}
}

func TestPaperWorkloadTraceBadArgs(t *testing.T) {
	if _, _, err := PaperWorkloadTraceContext(context.Background(), DefaultConfig(), 1, 16, 1, 1, nil); err == nil {
		t.Fatal("expected graph error")
	}
	if _, _, err := PaperWorkloadTraceContext(context.Background(), Config{}, 64, 4, 1, 1, nil); err == nil {
		t.Fatal("expected machine error")
	}
}

func TestCachedWorkloadTraceSmaller(t *testing.T) {
	g := paperGraph(t)
	plain, _ := NewMachine(DefaultConfig())
	if _, err := TraceBFS(plain, g, 0, false); err != nil {
		t.Fatal(err)
	}
	cachedCfg := DefaultConfig()
	cachedCfg.CachesEnabled = true
	cached, err := NewMachine(cachedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TraceBFS(cached, g, 0, false); err != nil {
		t.Fatal(err)
	}
	if len(cached.Trace()) >= len(plain.Trace()) {
		t.Fatalf("caches should filter the trace: %d vs %d",
			len(cached.Trace()), len(plain.Trace()))
	}
}

func TestTraceSSSPMatchesReference(t *testing.T) {
	g := paperGraph(t)
	m, _ := NewMachine(DefaultConfig())
	res, err := TraceSSSP(m, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := graph.SSSPDeltaStepping(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for _, d := range dist {
		if !mathIsInf(d) {
			reachable++
		}
	}
	if res.Visited != reachable {
		t.Fatalf("instrumented SSSP visited %d, reference %d", res.Visited, reachable)
	}
	if res.TraceEvents == 0 {
		t.Fatal("empty SSSP trace")
	}
	if _, err := TraceSSSP(m, g, 9999); err == nil {
		t.Fatal("expected source error")
	}
}

func mathIsInf(d float64) bool { return d > 1e308 }

func TestPrefetcherAddsTraffic(t *testing.T) {
	g := paperGraph(t)
	base := DefaultConfig()
	base.CachesEnabled = true
	m1, err := NewMachine(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TraceBFS(m1, g, 0, false); err != nil {
		t.Fatal(err)
	}
	pf := base
	pf.PrefetchDegree = 2
	m2, err := NewMachine(pf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TraceBFS(m2, g, 0, false); err != nil {
		t.Fatal(err)
	}
	if m2.Stats().Prefetches == 0 {
		t.Fatal("prefetcher issued nothing")
	}
	// Prefetching trades more memory reads for fewer demand L2 misses.
	if m2.Stats().MemReads <= m1.Stats().MemReads {
		t.Fatalf("prefetch reads %d should exceed demand-only %d",
			m2.Stats().MemReads, m1.Stats().MemReads)
	}
	if m2.Stats().L2Misses >= m1.Stats().L2Misses {
		t.Fatalf("prefetching should cut demand L2 misses: %d vs %d",
			m2.Stats().L2Misses, m1.Stats().L2Misses)
	}
}

func TestPaperWorkloadTraceNegativeSeed(t *testing.T) {
	m, res, err := PaperWorkloadTraceContext(context.Background(), DefaultConfig(), 128, 4, -5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < 1 || len(m.Trace()) == 0 {
		t.Fatalf("negative-seed run: visited %d, events %d", res.Visited, len(m.Trace()))
	}
}
