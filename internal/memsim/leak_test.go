package memsim

import (
	"runtime"
	"testing"
	"time"

	"graphdse/internal/trace"
)

// waitGoroutinesSettle fails the test if the goroutine count does not return
// to the baseline within a short settle window. The simulator spawns one
// goroutine per memory channel; a replay that strands them would leak on
// every point of a 416-point sweep.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunTraceSourceNoGoroutineLeak(t *testing.T) {
	events := syntheticTrace(4000, 51)
	base := runtime.NumGoroutine()
	sim, err := New(NewDRAMConfig(4, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sim.RunSource(trace.NewSliceSource(events)); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutinesSettle(t, base)
}

// errSource fails after delivering a prefix, exercising the simulator's
// error-path teardown of the per-channel goroutines.
type errSource struct {
	inner trace.Source
	left  int
}

func (s *errSource) Next(batch []trace.Event) (int, error) {
	if s.left <= 0 {
		return 0, trace.ErrFormat
	}
	if len(batch) > s.left {
		batch = batch[:s.left]
	}
	n, err := s.inner.Next(batch)
	s.left -= n
	return n, err
}

func TestRunTraceSourceErrorPathNoGoroutineLeak(t *testing.T) {
	events := syntheticTrace(4000, 52)
	base := runtime.NumGoroutine()
	sim, err := New(NewDRAMConfig(4, 2000, 400))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		src := &errSource{inner: trace.NewSliceSource(events), left: 1000}
		if _, err := sim.RunSource(src); err == nil {
			t.Fatal("expected source error to propagate")
		}
	}
	waitGoroutinesSettle(t, base)
}
