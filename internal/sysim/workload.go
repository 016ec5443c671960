package sysim

import (
	"context"
	"errors"
	"fmt"

	"graphdse/internal/graph"
)

// This file instruments the graph kernels: the algorithms run for real over
// the CSR graph while every data-structure access is mirrored as a simulated
// load/store, producing the memory trace gem5 produced for the paper.

// WorkloadResult pairs the machine's trace with the kernel's output summary.
type WorkloadResult struct {
	Stats       Stats
	Visited     int
	Iterations  int
	FinalCycle  uint64
	TraceEvents int
}

// ErrWorkload reports invalid workload arguments.
var ErrWorkload = errors.New("sysim: invalid workload arguments")

// graphArrays holds the simulated base addresses of the CSR arrays.
type graphArrays struct {
	offsets uint64 // (n+1) × 8 bytes
	targets uint64 // m × 4 bytes
	parent  uint64 // n × 4 bytes
	level   uint64 // n × 4 bytes
	queue   uint64 // n × 4 bytes
	aux     uint64 // n × 8 bytes (rank vectors etc.)
	aux2    uint64 // n × 8 bytes
}

func allocGraph(m *Machine, g *graph.CSR, prefix string) graphArrays {
	n := uint64(g.NumVertices())
	mm := uint64(g.NumEdges())
	return graphArrays{
		offsets: m.Layout().Alloc(prefix+".offsets", (n+1)*8),
		targets: m.Layout().Alloc(prefix+".targets", mm*4),
		parent:  m.Layout().Alloc(prefix+".parent", n*4),
		level:   m.Layout().Alloc(prefix+".level", n*4),
		queue:   m.Layout().Alloc(prefix+".queue", n*4),
		aux:     m.Layout().Alloc(prefix+".aux", n*8),
		aux2:    m.Layout().Alloc(prefix+".aux2", n*8),
	}
}

// writeGraphPhase simulates loading/constructing the CSR image in memory:
// sequential stores over the offsets and targets arrays (the paper's trace
// covers the whole program, including graph construction).
func writeGraphPhase(m *Machine, g *graph.CSR, a graphArrays) {
	n := g.NumVertices()
	for v := 0; v <= n; v++ {
		m.Store(a.offsets+uint64(v)*8, 8)
		m.Compute(8)
	}
	mm := int(g.NumEdges())
	for i := 0; i < mm; i++ {
		m.Store(a.targets+uint64(i)*4, 4)
		m.Compute(8)
	}
}

// TraceBFS executes the Graph500 BFS kernel from root on the machine,
// mirroring every array access, and returns the kernel summary. When
// includeBuild is true the graph-construction phase is traced first.
func TraceBFS(m *Machine, g *graph.CSR, root uint32, includeBuild bool) (*WorkloadResult, error) {
	if int(root) >= g.NumVertices() {
		return nil, fmt.Errorf("%w: root %d of %d", ErrWorkload, root, g.NumVertices())
	}
	a := allocGraph(m, g, fmt.Sprintf("bfs%d", root))
	if includeBuild {
		writeGraphPhase(m, g, a)
	}
	n := g.NumVertices()
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = -1
		// Initialization pass: memset-style stores.
		m.Store(a.parent+uint64(i)*4, 4)
		m.Compute(6)
	}
	parent[root] = int64(root)
	m.Store(a.parent+uint64(root)*4, 4)

	frontier := []uint32{root}
	m.Store(a.queue, 4)
	visited := 1
	iterations := 0
	offsets := g.Offsets()

	for len(frontier) > 0 {
		iterations++
		var next []uint32
		for fi, u := range frontier {
			// Pop u from the frontier queue.
			m.Load(a.queue+uint64(fi)*4, 4)
			// offsets[u] and offsets[u+1]: one 16-byte touch.
			m.Load(a.offsets+uint64(u)*8, 16)
			m.Compute(14)
			lo, hi := offsets[u], offsets[u+1]
			for ei := lo; ei < hi; ei++ {
				// targets[ei]
				m.Load(a.targets+uint64(ei)*4, 4)
				v := g.Targets()[ei]
				// parent[v] check
				m.Load(a.parent+uint64(v)*4, 4)
				m.Compute(16)
				if parent[v] == -1 {
					parent[v] = int64(u)
					m.Store(a.parent+uint64(v)*4, 4)
					// push v
					m.Store(a.queue+uint64(len(next))*4, 4)
					m.Compute(8)
					next = append(next, v)
					visited++
				}
			}
			m.Compute(18) // loop bookkeeping
		}
		frontier = next
	}
	m.Flush()
	return &WorkloadResult{
		Stats:       m.Stats(),
		Visited:     visited,
		Iterations:  iterations,
		FinalCycle:  m.Cycle(),
		TraceEvents: m.TraceLen(),
	}, nil
}

// TracePageRank executes iters power-iteration rounds of PageRank with
// mirrored memory accesses.
func TracePageRank(m *Machine, g *graph.CSR, iters int) (*WorkloadResult, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("%w: iters %d", ErrWorkload, iters)
	}
	a := allocGraph(m, g, "pagerank")
	n := g.NumVertices()
	offsets := g.Offsets()
	for i := 0; i < n; i++ {
		m.Store(a.aux+uint64(i)*8, 8) // rank[i] init
		m.Compute(1)
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			m.Store(a.aux2+uint64(i)*8, 8) // next[i] = 0
			m.Compute(1)
		}
		for u := 0; u < n; u++ {
			m.Load(a.offsets+uint64(u)*8, 16)
			m.Load(a.aux+uint64(u)*8, 8) // rank[u]
			m.Compute(5)
			for ei := offsets[u]; ei < offsets[u+1]; ei++ {
				m.Load(a.targets+uint64(ei)*4, 4)
				v := g.Targets()[ei]
				// next[v] += share: read-modify-write
				m.Load(a.aux2+uint64(v)*8, 8)
				m.Store(a.aux2+uint64(v)*8, 8)
				m.Compute(2)
			}
		}
		for i := 0; i < n; i++ {
			m.Load(a.aux2+uint64(i)*8, 8)
			m.Store(a.aux+uint64(i)*8, 8)
			m.Compute(2)
		}
	}
	m.Flush()
	return &WorkloadResult{
		Stats:       m.Stats(),
		Visited:     n,
		Iterations:  iters,
		FinalCycle:  m.Cycle(),
		TraceEvents: m.TraceLen(),
	}, nil
}

// TraceConnectedComponents executes label-propagation connected components
// with mirrored memory accesses.
func TraceConnectedComponents(m *Machine, g *graph.CSR) (*WorkloadResult, error) {
	a := allocGraph(m, g, "cc")
	n := g.NumVertices()
	offsets := g.Offsets()
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = uint32(i)
		m.Store(a.parent+uint64(i)*4, 4)
		m.Compute(6)
	}
	iterations := 0
	for changed := true; changed; {
		changed = false
		iterations++
		for u := 0; u < n; u++ {
			m.Load(a.offsets+uint64(u)*8, 16)
			m.Load(a.parent+uint64(u)*4, 4)
			m.Compute(3)
			for ei := offsets[u]; ei < offsets[u+1]; ei++ {
				m.Load(a.targets+uint64(ei)*4, 4)
				v := g.Targets()[ei]
				m.Load(a.parent+uint64(v)*4, 4)
				m.Compute(2)
				if comp[v] < comp[u] {
					comp[u] = comp[v]
					m.Store(a.parent+uint64(u)*4, 4)
					changed = true
				} else if comp[u] < comp[v] {
					comp[v] = comp[u]
					m.Store(a.parent+uint64(v)*4, 4)
					changed = true
				}
			}
		}
	}
	m.Flush()
	return &WorkloadResult{
		Stats:       m.Stats(),
		Visited:     n,
		Iterations:  iterations,
		FinalCycle:  m.Cycle(),
		TraceEvents: m.TraceLen(),
	}, nil
}

// TraceSSSP executes unweighted single-source shortest paths (weight 1 per
// edge) with mirrored memory accesses, using a Bellman-Ford-style
// relaxation loop whose array traffic matches the bucketed Δ-stepping
// algorithm's memory behavior.
func TraceSSSP(m *Machine, g *graph.CSR, source uint32) (*WorkloadResult, error) {
	n := g.NumVertices()
	if int(source) >= n {
		return nil, fmt.Errorf("%w: source %d of %d", ErrWorkload, source, n)
	}
	a := allocGraph(m, g, "sssp")
	offsets := g.Offsets()
	const inf = int64(^uint64(0) >> 1)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = inf
		m.Store(a.aux+uint64(i)*8, 8)
		m.Compute(1)
	}
	dist[source] = 0
	m.Store(a.aux+uint64(source)*8, 8)

	iterations := 0
	for changed := true; changed; {
		changed = false
		iterations++
		for u := 0; u < n; u++ {
			m.Load(a.offsets+uint64(u)*8, 16)
			m.Load(a.aux+uint64(u)*8, 8)
			m.Compute(6)
			du := dist[u]
			if du == inf {
				continue
			}
			for ei := offsets[u]; ei < offsets[u+1]; ei++ {
				m.Load(a.targets+uint64(ei)*4, 4)
				v := g.Targets()[ei]
				m.Load(a.aux+uint64(v)*8, 8)
				m.Compute(4)
				if du+1 < dist[v] {
					dist[v] = du + 1
					m.Store(a.aux+uint64(v)*8, 8)
					changed = true
				}
			}
		}
	}
	m.Flush()
	visited := 0
	for _, d := range dist {
		if d != inf {
			visited++
		}
	}
	return &WorkloadResult{
		Stats:       m.Stats(),
		Visited:     visited,
		Iterations:  iterations,
		FinalCycle:  m.Cycle(),
		TraceEvents: m.TraceLen(),
	}, nil
}

// PaperWorkloadTraceContext reproduces the paper's exact workload setup:
// generate a GTGraph R-MAT graph with numVertices and edgeFactor, run the
// Graph500 BFS kernel from a deterministic pseudo-random root (per seed), and
// return the machine (holding the trace) plus the kernel summary. repeats > 1
// runs BFS from additional roots, scaling the trace the way Graph500's
// 64-root harness does. ctx is checked between BFS roots (a multi-root
// harness can be cancelled at root granularity) and beat, when non-nil, is
// called after each root as a progress heartbeat.
func PaperWorkloadTraceContext(ctx context.Context, cfg Config, numVertices, edgeFactor int, seed int64, repeats int, beat func()) (*Machine, *WorkloadResult, error) {
	if repeats <= 0 {
		repeats = 1
	}
	g, err := graph.GenerateGTGraph(numVertices, edgeFactor, seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	var last *WorkloadResult
	root := uint32(seed % int64(numVertices))
	if seed < 0 {
		root = 0
	}
	for r := 0; r < repeats; r++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("sysim: workload cancelled at root %d/%d: %w", r, repeats, err)
		}
		last, err = TraceBFS(m, g, (root+uint32(r*97))%uint32(numVertices), r == 0)
		if err != nil {
			return nil, nil, err
		}
		if beat != nil {
			beat()
		}
	}
	return m, last, nil
}
