package dse

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestSweepPreparedPartitionReuse: a sweep's worker pool must route the
// trace to channels once per mapping geometry, not once per design point.
// The space below spans exactly two geometries (2 and 4 channels; rank/bank
// /row organization is fixed by the config constructors), so across all
// points and workers the prepared trace's partition cache must record
// exactly two builds — everything else replays a cached partition.
func TestSweepPreparedPartitionReuse(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000, 6500},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2, 4},
		Fractions:    []float64{0.25, 0.5},
	})
	if len(points) < 8 {
		t.Fatalf("space too small to exercise reuse: %d points", len(points))
	}
	if _, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	st := pt.PartitionCacheStats()
	if st.Misses != 2 {
		t.Fatalf("partition builds = %d, want 2 (one per geometry; %d points swept)", st.Misses, len(points))
	}
	if st.Hits != uint64(len(points))-2 {
		t.Fatalf("partition hits = %d, want %d", st.Hits, len(points)-2)
	}
	if st.Entries != 2 {
		t.Fatalf("cached partitions = %d, want 2", st.Entries)
	}
}

// TestPartitionSweepConcurrentStress: many sweeps hammering one
// PreparedTrace concurrently — the single-flight partition cache and the
// engine pool under contention — must all produce the same records a lone
// sweep does. Runs under -race in CI's chaos matrix.
func TestPartitionSweepConcurrentStress(t *testing.T) {
	pt := smallTrace(t)
	points := EnumerateSpace(SpaceParams{
		CPUFreqsMHz:  []float64{2000},
		CtrlFreqsMHz: []float64{400},
		Channels:     []int{2, 4},
		Fractions:    []float64{0.25},
	})
	want, err := SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 8
	got := make([][]RunRecord, sweeps)
	errs := make([]error, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = SweepPreparedContext(context.Background(), pt, points, SweepOptions{Workers: 2})
		}(i)
	}
	wg.Wait()
	for i := 0; i < sweeps; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want) {
			t.Fatalf("sweep %d: %d records, want %d", i, len(got[i]), len(want))
		}
		for j := range got[i] {
			if !reflect.DeepEqual(got[i][j].Result, want[j].Result) {
				t.Fatalf("sweep %d record %d (%s): diverged under concurrency",
					i, j, got[i][j].Point.ID())
			}
		}
	}
}
