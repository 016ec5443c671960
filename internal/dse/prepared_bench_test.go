package dse

import (
	"context"
	"reflect"
	"testing"

	"graphdse/internal/memsim"
	"graphdse/internal/trace"
)

// TestSweepPreparedMatchesSweep: the decode-once parallel sweep must be
// observationally identical to replaying each point on its own in one pass
// over the raw events — same records, same metrics, same order — across the
// full small space.
func TestSweepPreparedMatchesSweep(t *testing.T) {
	events := smallEvents(t)
	points := EnumerateSpace(smallSpace())
	pt, err := memsim.Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(points) {
		t.Fatalf("records = %d, want %d", len(got), len(points))
	}
	for i, p := range points {
		if got[i].Point.ID() != p.ID() {
			t.Fatalf("record %d: point %s vs %s", i, got[i].Point.ID(), p.ID())
		}
		sim, err := memsim.New(p.Config(0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunSource(trace.NewSliceSource(events))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("record %d (%s): results differ:\n got %+v\nwant %+v",
				i, p.ID(), got[i].Result, want)
		}
	}
}

func TestSweepPreparedEmptyTrace(t *testing.T) {
	pt, err := memsim.Prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepPreparedContext(context.Background(), pt, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
	if _, err := SweepPreparedContext(context.Background(), nil, EnumerateSpace(smallSpace()), SweepOptions{}); err != memsim.ErrEmptyTrace {
		t.Fatalf("nil prepared: err = %v, want ErrEmptyTrace", err)
	}
}

// benchPoints is a small but mixed slice of the space so per-point cost
// differences (validate+decode per point vs decode once) dominate the
// benchmark, as they do over the paper's 416-point sweep.
func benchPoints() []DesignPoint {
	return EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2},
		Fractions:    []float64{0.25, 0.5},
	})
}

// BenchmarkSweepSlice emulates the pre-refactor sweep: every design point
// re-validates and re-routes the full event slice in a one-pass RunSource.
func BenchmarkSweepSlice(b *testing.B) {
	events := smallEvents(b)
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			sim, err := memsim.New(p.Config(0))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunSource(trace.NewSliceSource(events)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepPrepared is the post-refactor path: Prepare once, replay
// the immutable PreparedTrace at every point. Acceptance requires lower
// ns/op and allocs/op than BenchmarkSweepSlice.
func BenchmarkSweepPrepared(b *testing.B) {
	pt := smallTrace(b)
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			sim, err := memsim.New(p.Config(0))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.RunPrepared(pt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepEndToEnd measures the whole engine (worker pool included)
// on the prepared path, the configuration the workflow now runs.
func BenchmarkSweepEndToEnd(b *testing.B) {
	pt := smallTrace(b)
	points := benchPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
