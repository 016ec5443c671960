package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine whose other
// tenants change how fast it runs: the same pass takes 20-50% longer for
// minutes at a time. The end-to-end times are therefore scaled to a
// reference host speed. Between operations the run times a fixed kernel
// that belongs to the benchmark, not to the program, and each operation's
// time is multiplied by refKernelSeconds over the kernel's time around
// it. A change to the program moves the scaled times by the same share as
// the wall-clock ones; a slower or faster host moves the kernel too and
// largely cancels out.
const (
	// refKernelSeconds is the kernel's median time on the reference host,
	// a 2-vCPU x86-64 VM; on that host scaled and wall-clock times agree
	// on average.
	refKernelSeconds = 0.19
	// chainWords is the length of the kernel's pointer chain: 16 MiB of
	// uint32, well past the CPU caches.
	chainWords = 4 << 20
	// gramSize is the side of the kernel's Gram matrix: about 1 MiB of
	// float64, as the SVM's over the paper workflow's training set.
	gramSize = 360
	// kernelReps is how often a sample runs the kernel on each goroutine.
	kernelReps = 3
	// Work per kernel run and goroutine.
	chainSteps  = 70_000
	gramSweeps  = 40_000
	sortRounds  = 25
	sortLen     = 4096
	rbfRounds   = 5
	rbfVectors  = 192
	rbfFeatures = 16
)

// hostSpeed runs the calibration kernel and keeps its times. The kernel
// runs on as many goroutines as GOMAXPROCS, as the sweep's workers do, and
// mixes what a pass spends its time on: SMO-style updates streaming rows
// of a 1 MiB Gram matrix with small short-lived allocations (SVM
// training), sorting (tree training), RBF kernel sums over small dense
// vectors, and dependent loads through a chain far larger than the caches
// (trace replay). The chain lies outside the Go heap, so it does not count
// in the heap metrics.
type hostSpeed struct {
	chain   []uint32
	mapped  []byte
	samples []float64
	gram    [][]float64
	vecs    [][]float64
	keys    []float64
	lanes   []kernelLane
}

// kernelLane is one goroutine's scratch space.
type kernelLane struct {
	f    []float64
	buf  []float64
	keep [][]float64
	sink float64
}

func newHostSpeed() (*hostSpeed, error) {
	mapped, err := syscall.Mmap(-1, 0, chainWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host-speed kernel: %w", err)
	}
	h := &hostSpeed{mapped: mapped, chain: unsafe.Slice((*uint32)(unsafe.Pointer(&mapped[0])), chainWords)}
	// Sattolo's shuffle: one cycle through every word, in a fixed order.
	rng := rand.New(rand.NewSource(1))
	for i := range h.chain {
		h.chain[i] = uint32(i)
	}
	for i := len(h.chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		h.chain[i], h.chain[j] = h.chain[j], h.chain[i]
	}
	h.gram = randomRows(rng, gramSize, gramSize)
	h.vecs = randomRows(rng, rbfVectors, rbfFeatures)
	h.keys = randomRows(rng, 1, sortLen)[0]
	h.lanes = make([]kernelLane, runtime.GOMAXPROCS(0))
	for i := range h.lanes {
		h.lanes[i] = kernelLane{f: make([]float64, gramSize), buf: make([]float64, sortLen), keep: make([][]float64, 64)}
	}
	return h, nil
}

func randomRows(rng *rand.Rand, rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.Float64()
		}
	}
	return m
}

// sample runs the kernel kernelReps times on every goroutine and records
// the wall time.
func (h *hostSpeed) sample() {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range h.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range kernelReps {
				h.kernel(g)
			}
		}()
	}
	wg.Wait()
	h.samples = append(h.samples, time.Since(start).Seconds())
}

func (h *hostSpeed) kernel(g int) {
	l := &h.lanes[g]
	sum := 0.0
	for s := 0; s < gramSweeps; s++ {
		a, b := h.gram[(s*7+g)%gramSize], h.gram[(s*13+1)%gramSize]
		delta := 1e-3 * float64(s%5-2)
		for k := range l.f {
			l.f[k] += delta * (a[k] - b[k])
		}
		cands := make([]float64, 0, 2)
		cands = append(cands, l.f[s%gramSize], delta)
		l.keep[s%len(l.keep)] = cands
	}
	for r := 0; r < sortRounds; r++ {
		copy(l.buf, h.keys)
		l.buf[r] = l.f[r]
		sort.Float64s(l.buf)
	}
	for r := 0; r < rbfRounds; r++ {
		for i, a := range h.vecs {
			b := h.vecs[(i*r+g+1)%len(h.vecs)]
			for _, c := range h.vecs {
				d := 0.0
				for f := range a {
					x := (a[f] + b[f]) - c[f]
					d += x * x
				}
				sum += math.Exp(-d)
			}
		}
	}
	at := uint32(g * 7919)
	for i := 0; i < chainSteps; i++ {
		at = h.chain[at]
	}
	l.sink = sum + l.buf[0] + float64(at)
}

// timing is one operation's wall-clock time and the index of the kernel
// sample taken just before it; the next sample was taken just after it.
type timing struct {
	seconds float64
	sample  int
}

// mark returns the index of the latest kernel sample, the one an
// operation starting now follows.
func (h *hostSpeed) mark() int { return len(h.samples) - 1 }

// scaled returns the operations' times at the reference host speed: each
// wall-clock time times refKernelSeconds over the mean of the two kernel
// samples around it. Pairing each operation with the host speed of its own
// stretch of the run follows the host more closely than one factor for the
// whole run.
func (h *hostSpeed) scaled(ts []timing) []float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		k := h.samples[t.sample]
		if t.sample+1 < len(h.samples) {
			k = (k + h.samples[t.sample+1]) / 2
		}
		xs[i] = t.seconds * ratio(refKernelSeconds, k)
	}
	return xs
}

// scaleTimes sets the end-to-end times from the run's set-up rounds and
// operations, scaled to the reference host speed, and the per-layer
// figures that show the scaling: the kernel's median time and the median
// operation's wall-clock time.
func scaleTimes(v map[string]float64, h *hostSpeed, setups, ops []timing) {
	v["setup_s"] = median(h.scaled(setups))
	scaled := h.scaled(ops)
	v["time_to_recommendation_s"] = median(scaled)
	v["time_to_recommendation_p90_s"] = quantile(scaled, 0.9)
	v["host.kernel_s"] = median(h.samples)
	wall := make([]float64, len(ops))
	for i, t := range ops {
		wall[i] = t.seconds
	}
	v["host.wall_time_to_recommendation_s"] = median(wall)
}

// close releases the chain.
func (h *hostSpeed) close() error { return syscall.Munmap(h.mapped) }
