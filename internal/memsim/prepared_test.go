package memsim

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"graphdse/internal/trace"
)

// preparedConfigs covers every memory organization so the equivalence
// theorems below hold across the full design space, not just DRAM.
func preparedConfigs() map[string]Config {
	hybrid := NewHybridConfig(2, 2000, 400, 36, 0.125)
	flat := NewHybridConfig(4, 2000, 400, 36, 0.25)
	flat.HybridMode = HybridFlat
	return map[string]Config{
		"dram":   NewDRAMConfig(2, 2000, 400),
		"nvm":    NewNVMConfig(4, 2000, 400, 36),
		"hybrid": hybrid,
		"flat":   flat,
	}
}

// TestRunPreparedMatchesRun is the core decode-once guarantee: replaying a
// PreparedTrace must yield a Result identical to the one-pass RunSource
// replay of the same events, which validates and routes every event itself,
// for every memory organization.
func TestRunPreparedMatchesRun(t *testing.T) {
	events := syntheticTrace(4000, 7)
	pt := mustPrepare(t, events)
	for name, cfg := range preparedConfigs() {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunSource(trace.NewSliceSource(events))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := sim.RunPrepared(pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RunPrepared result differs from RunSource:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// choppySource hands out events in irregular batches of 1–7, so a streamed
// replay meets a batch boundary every few events.
type choppySource struct {
	events []trace.Event
	step   int
}

func (c *choppySource) Next(batch []trace.Event) (int, error) {
	if len(c.events) == 0 {
		return 0, io.EOF
	}
	c.step = c.step%7 + 1
	n := copy(batch[:min(c.step, len(batch))], c.events)
	c.events = c.events[n:]
	return n, nil
}

// TestRunSourceMatchesRun: a streamed replay does not depend on how its
// stream is batched — irregular small batches give exactly the Result of
// the prepared replay, for every memory organization.
func TestRunSourceMatchesRun(t *testing.T) {
	events := syntheticTrace(4000, 8)
	pt := mustPrepare(t, events)
	for name, cfg := range preparedConfigs() {
		want := runCfg(t, cfg, pt)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunSource(&choppySource{events: events})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: batched RunSource differs from RunPrepared:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestRunSourceFromText streams straight from NVMain text — the cmd/memsim
// path — and must match the parse-then-prepare pipeline.
func TestRunSourceFromText(t *testing.T) {
	events := syntheticTrace(1000, 9)
	var buf bytes.Buffer
	if err := trace.WriteNVMain(&buf, events); err != nil {
		t.Fatal(err)
	}
	cfg := NewDRAMConfig(2, 2000, 400)
	want := runCfg(t, cfg, mustPrepare(t, events))
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunSource(trace.NewNVMainSource(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunSource over NVMain text differs from the prepared path")
	}
}

func TestPrepareSourceMatchesPrepare(t *testing.T) {
	events := syntheticTrace(3000, 10)
	want := mustPrepare(t, events)
	got, err := PrepareSource(trace.NewSliceSource(events))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Stats() != want.Stats() {
		t.Fatalf("PrepareSource: len=%d stats=%+v, want len=%d stats=%+v",
			got.Len(), got.Stats(), want.Len(), want.Stats())
	}
	cfg := NewDRAMConfig(2, 2000, 400)
	if !reflect.DeepEqual(runCfg(t, cfg, got), runCfg(t, cfg, want)) {
		t.Fatal("PrepareSource and Prepare replay differently")
	}
}

// TestPreparedEventsRoundTrip: preparation keeps every field the simulator
// consumes. The thread tag is deliberately dropped.
func TestPreparedEventsRoundTrip(t *testing.T) {
	events := syntheticTrace(500, 11)
	pt := mustPrepare(t, events)
	if pt.Len() != len(events) {
		t.Fatalf("Len() = %d, want %d", pt.Len(), len(events))
	}
	for i, e := range events {
		if pt.cycles[i] != e.Cycle || pt.addrs[i] != e.Addr || pt.writes[i] != (e.Op == trace.Write) {
			t.Fatalf("event %d: prepared (%d, %#x, write=%v) vs %+v", i, pt.cycles[i], pt.addrs[i], pt.writes[i], e)
		}
	}
}

func TestPrepareRejectsBadEvent(t *testing.T) {
	if _, err := Prepare([]trace.Event{{Cycle: 1, Op: 'Q'}}); err == nil {
		t.Fatal("expected bad-op error")
	}
}

func TestRunPreparedEmpty(t *testing.T) {
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPrepared(mustPrepare(t, nil)); err != ErrEmptyTrace {
		t.Fatalf("err = %v, want ErrEmptyTrace", err)
	}
}

func TestRunSourceEmpty(t *testing.T) {
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSource(trace.NewSliceSource(nil)); err != ErrEmptyTrace {
		t.Fatal("expected ErrEmptyTrace")
	}
}

func TestRunSourceRejectsBadEvent(t *testing.T) {
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	bad := []trace.Event{{Cycle: 1, Op: 'Q'}}
	if _, err := sim.RunSource(trace.NewSliceSource(bad)); err == nil {
		t.Fatal("expected bad-op error")
	}
}

// TestPreparedImmutableUnderConcurrentReplay: one PreparedTrace shared by
// concurrent simulators must give each the same answer (run with -race to
// also prove there are no writes).
func TestPreparedImmutableUnderConcurrentReplay(t *testing.T) {
	pt := mustPrepare(t, syntheticTrace(2000, 12))
	cfg := NewHybridConfig(2, 2000, 400, 36, 0.125)
	want := runCfg(t, cfg, pt)
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			sim, err := New(cfg)
			if err != nil {
				errs <- err
				return
			}
			got, err := sim.RunPrepared(pt)
			if err == nil && !reflect.DeepEqual(got, want) {
				err = errDiverged
			}
			errs <- err
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent replay diverged" }

// TestRunPreparedAllocBound pins down the sweep hot path's allocation
// discipline: once the trace's partition is cached and the engine pool is
// warm, a replay allocates only the result snapshot (Result, per-channel
// stats, cloned PerBankBytes, goroutine bookkeeping) — a small constant,
// independent of trace length and far below one allocation per event. The
// pre-refactor engine allocated the per-channel request queues, bank arrays,
// and endurance counters on every design point (~megabytes per replay).
func TestRunPreparedAllocBound(t *testing.T) {
	events := syntheticTrace(4096, 13)
	pt, err := Prepare(events)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(NewDRAMConfig(2, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunPrepared(pt); err != nil { // warm partition cache + pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sim.RunPrepared(pt); err != nil {
			panic(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("RunPrepared allocated %.0f times for %d events; want the constant snapshot cost (<=32)", allocs, len(events))
	}
}
