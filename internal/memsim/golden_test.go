package memsim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphdse/internal/trace"
)

// The golden equivalence suite pins the replay engine's exact output across
// the full device × scheduler × page-policy matrix (plus refresh and
// channel-blocked mapping variants). The fixtures were captured from the
// pre-refactor engine (PR 7's seed); every later restructuring of the replay
// core must reproduce them bit-for-bit — float fields included, since JSON
// round-trips float64 exactly via the shortest-representation encoding.
//
// Regenerate (only when the model itself intentionally changes) with:
//
//	MEMSIM_UPDATE_GOLDEN=1 go test ./internal/memsim -run TestGolden

// goldenTraceN is sized so every config exercises queue backpressure, row
// misses, cache evictions and writebacks without bloating test time.
const goldenTraceN = 20000

// goldenCase is one cell of the equivalence matrix.
type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	types := []struct {
		tag string
		mk  func() Config
	}{
		{"dram", func() Config { return NewDRAMConfig(2, 2000, 666) }},
		{"nvm", func() Config { return NewNVMConfig(2, 2000, 666, 67) }},
		{"hybrid-cache", func() Config { return NewHybridConfig(2, 2000, 666, 67, 0.25) }},
		{"hybrid-flat", func() Config {
			c := NewHybridConfig(2, 2000, 666, 67, 0.25)
			c.HybridMode = HybridFlat
			return c
		}},
	}
	scheds := []struct {
		tag string
		s   SchedulerKind
	}{{"fcfs", FCFS}, {"frfcfs", FRFCFS}}
	pols := []struct {
		tag string
		p   PagePolicy
	}{{"open", OpenPage}, {"closed", ClosedPage}}
	for _, ty := range types {
		for _, sc := range scheds {
			for _, po := range pols {
				cfg := ty.mk()
				cfg.Scheduler = sc.s
				cfg.Policy = po.p
				cases = append(cases, goldenCase{
					name: ty.tag + "_" + sc.tag + "_" + po.tag,
					cfg:  cfg,
				})
			}
		}
	}
	// Refresh-enabled DRAM: the only path exercising TREFI/TRFC catch-up.
	refresh := NewDRAMConfig(2, 2000, 666)
	refresh.Timing.TREFI = 1560
	refresh.Timing.TRFC = 44
	cases = append(cases, goldenCase{name: "dram_refresh", cfg: refresh})
	// Channel-blocked mapping: the NUMA-style address decomposition.
	blocked := NewDRAMConfig(4, 2000, 666)
	blocked.Mapping = MapChannelBlocked
	cases = append(cases, goldenCase{name: "dram_blocked", cfg: blocked})
	return cases
}

// goldenFixture wraps a Result for JSON persistence. LifetimeYears can be
// +Inf (no tracked writes), which encoding/json refuses; it travels as a
// flag and is restored on load.
type goldenFixture struct {
	LifetimeInf bool   `json:"lifetime_inf,omitempty"`
	Result      Result `json:"result"`
}

func fixturePath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func marshalFixture(t *testing.T, res *Result) []byte {
	t.Helper()
	fx := goldenFixture{Result: *res}
	if math.IsInf(fx.Result.LifetimeYears, 1) {
		fx.LifetimeInf = true
		fx.Result.LifetimeYears = 0
	}
	data, err := json.MarshalIndent(&fx, "", " ")
	if err != nil {
		t.Fatalf("marshal fixture: %v", err)
	}
	return append(data, '\n')
}

// loadFixture returns a committed fixture's bytes and the Result they hold.
func loadFixture(t *testing.T, name string) ([]byte, *Result) {
	t.Helper()
	data, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("golden fixture %s missing (regenerate with MEMSIM_UPDATE_GOLDEN=1): %v", name, err)
	}
	var fx goldenFixture
	if err := json.Unmarshal(data, &fx); err != nil {
		t.Fatalf("golden fixture %s corrupt: %v", name, err)
	}
	if fx.LifetimeInf {
		fx.Result.LifetimeYears = math.Inf(1)
	}
	return data, &fx.Result
}

// TestGoldenEquivalence replays the deterministic golden trace against every
// matrix cell through both public replay paths — the one-pass RunSource and
// the sweep's Prepare + RunPrepared (fresh, then again on the same simulator
// to exercise pooled engines and the cached partition) — and requires each
// to reproduce the committed fixture byte for byte.
func TestGoldenEquivalence(t *testing.T) {
	events := syntheticTrace(goldenTraceN, 77)
	update := os.Getenv("MEMSIM_UPDATE_GOLDEN") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	pt := mustPrepare(t, events)
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sim, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunSource(trace.NewSliceSource(events))
			if err != nil {
				t.Fatal(err)
			}
			if update {
				if err := os.WriteFile(fixturePath(c.name), marshalFixture(t, res), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, want := loadFixture(t, c.name)
			check := func(path string, got *Result) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverged from golden fixture %s:\n got %+v\nwant %+v", path, c.name, got, want)
				}
				if !bytes.Equal(marshalFixture(t, got), wantBytes) {
					t.Fatalf("%s does not reproduce the bytes of golden fixture %s", path, c.name)
				}
			}
			check("RunSource", res)
			prepRes, err := sim.RunPrepared(pt)
			if err != nil {
				t.Fatal(err)
			}
			check("RunPrepared", prepRes)
			again, err := sim.RunPrepared(pt)
			if err != nil {
				t.Fatal(err)
			}
			check("repeat RunPrepared", again)
		})
	}
}
