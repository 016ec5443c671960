package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dse"
	"graphdse/internal/dsed"
	"graphdse/internal/memsim"
	"graphdse/internal/sysim"
	"graphdse/internal/trace"
)

// daemonSize is the daemon-jobs input: the traces jobs draw from, the
// design space each job sweeps, and the closed-loop client count.
type daemonSize struct {
	Vertices   int
	EdgeFactor int
	Space      dse.SpaceParams
	// Traces is the number of distinct traces; the first half are
	// workload specs the daemon synthesizes, the rest TRACEBIN files
	// written during set-up.
	Traces        int
	Clients       int
	ReplayPerType int
}

const (
	// jobTimeout bounds one job from submission to its last read; a job
	// exceeding it counts as failed.
	jobTimeout = 60 * time.Second
	// maxMeasure caps the measurement when reaching MinOps jobs takes
	// longer than the requested duration.
	maxMeasure = 120 * time.Second
	// calibrateEvery is how long the clients run between two timings of
	// the host-speed kernel; they finish their jobs in flight and wait
	// while it runs.
	calibrateEvery = 3 * time.Second
	// heapWindow is the window the measurement's peak heap is taken over;
	// the run reports the median window's peak, which, unlike the peak of
	// the whole run, does not hinge on where a single GC cycle falls.
	heapWindow = time.Second
)

// daemonRig is a running daemon plus everything its jobs are checked
// against.
type daemonRig struct {
	base   string
	client *http.Client
	specs  []dsed.JobSpec
	// refRecords[k] is the digest of the canonical records of trace k's
	// sweep, computed in-process through dse.
	refRecords []string
	prepared   []*memsim.PreparedTrace
	points     []dse.DesignPoint

	stop    context.CancelFunc
	stopped chan error

	mu     sync.Mutex
	expect *expectations // guarded by mu
}

// traceSeed derives trace k's workload seed from the run's seed.
func traceSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// referenceSweep simulates trace k of seed and sweeps it in-process as the
// daemon does: with the nominal hybrid cache size (FootprintLines 0),
// gated before sealing. It returns the machine, the prepared trace and the
// digest of the gated records.
func referenceSweep(ctx context.Context, size daemonSize, points []dse.DesignPoint, seed int64, k int) (*sysim.Machine, *memsim.PreparedTrace, string, error) {
	machine, _, err := sysim.PaperWorkloadTraceContext(ctx, sysim.DefaultConfig(), size.Vertices, size.EdgeFactor, traceSeed(seed, k), 1, nil)
	if err != nil {
		return nil, nil, "", fmt.Errorf("trace %d: %w", k, err)
	}
	pt, err := memsim.PrepareSource(machine.TraceSource())
	if err != nil {
		return nil, nil, "", fmt.Errorf("trace %d: %w", k, err)
	}
	records, err := dse.SweepPreparedContext(ctx, pt, points, dse.SweepOptions{Faults: dse.PaperFaults(dse.PaperFailureRate, paperFailureSeed)})
	if err != nil {
		return nil, nil, "", fmt.Errorf("reference sweep %d: %w", k, err)
	}
	if _, err := dse.ApplyInvariantGate(records, int64(pt.Len())); err != nil {
		return nil, nil, "", fmt.Errorf("reference gate %d: %w", k, err)
	}
	rd, err := recordsDigest(records)
	return machine, pt, rd, err
}

// referencesDigest combines the reference digests of all traces.
func referencesDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return sumHex(h)
}

// setupDaemon checks the reference sweeps of DefaultSeed's traces against
// their pin, writes the run's trace files, computes their reference
// sweeps, starts the daemon on the spool in dir (recovering whatever an
// earlier set-up left there) and runs one warm-up job per client.
func setupDaemon(ctx context.Context, dir string, size daemonSize, seed int64, refPins map[string]string, exp *expectations, out *outcome) (*daemonRig, error) {
	points := dse.EnumerateSpace(size.Space)
	rig := &daemonRig{points: points, expect: exp}

	var pinned []string
	for k := 0; k < size.Traces; k++ {
		_, _, rd, err := referenceSweep(ctx, size, points, DefaultSeed, k)
		if err != nil {
			return nil, err
		}
		pinned = append(pinned, rd)
	}
	out.attempted++
	if msg := checkPinned(refPins, map[string]string{"records": referencesDigest(pinned)}); msg != "" {
		out.wrong(fmt.Sprintf("reference sweeps of seed %d: %s", DefaultSeed, msg))
	}

	traceDir := filepath.Join(dir, "traces")
	if err := artifact.OS.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	for k := 0; k < size.Traces; k++ {
		machine, pt, rd, err := referenceSweep(ctx, size, points, seed, k)
		if err != nil {
			return nil, err
		}
		spec := dsed.JobSpec{
			Space:       &size.Space,
			FailureRate: dse.PaperFailureRate,
			FailureSeed: paperFailureSeed,
		}
		if k < size.Traces/2 {
			spec.Workload = &dsed.WorkloadSpec{Vertices: size.Vertices, EdgeFactor: size.EdgeFactor, Seed: traceSeed(seed, k), Repeats: 1}
		} else {
			path, err := filepath.Abs(filepath.Join(traceDir, fmt.Sprintf("trace-%d.bin", k)))
			if err != nil {
				return nil, err
			}
			events := machine.Trace()
			if err := artifact.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
				return trace.WriteBinary(w, events)
			}); err != nil {
				return nil, fmt.Errorf("write trace %d: %w", k, err)
			}
			spec.TracePath = path
		}
		rig.specs = append(rig.specs, spec)
		rig.refRecords = append(rig.refRecords, rd)
		rig.prepared = append(rig.prepared, pt)
	}
	out.attempted++
	if msg := exp.check(map[string]string{"records": referencesDigest(rig.refRecords)}); msg != "" {
		out.wrong("reference sweeps: " + msg)
	}

	d, err := dsed.New(dsed.Options{Dir: filepath.Join(dir, "spool"), HeapSoftBytes: heapBudget})
	if err != nil {
		return nil, err
	}
	dctx, stop := context.WithCancel(ctx)
	rig.stop, rig.stopped = stop, make(chan error, 1)
	go func() { rig.stopped <- d.Run(dctx) }()
	rig.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * size.Clients}}
	if err := rig.waitHealthy(ctx, d); err != nil {
		rig.close()
		return nil, err
	}

	warm := make([]jobRun, size.Clients)
	var wg sync.WaitGroup
	for c := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm[c] = rig.job(ctx, c, c*len(rig.specs)/size.Clients, nil, "")
		}()
	}
	wg.Wait()
	for _, j := range warm {
		out.attempted++
		if j.err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up job: %w", j.err)
		}
		if j.wrong != "" {
			out.wrong("warm-up job: " + j.wrong)
		}
	}
	return rig, nil
}

// waitHealthy waits until the daemon serves /healthz.
func (r *daemonRig) waitHealthy(ctx context.Context, d *dsed.Daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-r.stopped:
			r.stopped <- err
			return fmt.Errorf("daemon exited during start-up: %w", err)
		default:
		}
		if addr := d.Addr(); addr != "" {
			r.base = "http://" + addr
			if code, _, err := r.get(ctx, "/healthz"); err == nil && code == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("daemon did not become healthy within 30s")
}

// close drains the daemon and waits for it to stop.
func (r *daemonRig) close() error {
	r.stop()
	err := <-r.stopped
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	return err
}

func (r *daemonRig) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// jobRun is one job's client-side timeline and verdict.
type jobRun struct {
	// Client-observed instants: POST sent, 202 received, running seen,
	// done seen, /result, /pareto and /recommend read.
	t         [7]time.Time
	survivors int
	total     int
	rejected  bool
	err       error
	wrong     string
}

func (j *jobRun) sealed() time.Duration  { return j.t[3].Sub(j.t[0]) }
func (j *jobRun) latency() time.Duration { return j.t[6].Sub(j.t[0]) }

// job submits trace k's spec, follows the job's event stream until it is
// terminal, then reads and checks its result, Pareto front and
// recommendation. With a tracer it records the job's phases as spans.
func (r *daemonRig) job(ctx context.Context, client, k int, tr *tracer, op string) (j jobRun) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	spec := r.specs[k]
	spec.Tenant = fmt.Sprintf("client-%d", client)
	body, err := json.Marshal(&spec)
	if err != nil {
		j.err = err
		return j
	}

	j.t[0] = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	var st dsed.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j.t[1] = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode == http.StatusInsufficientStorage:
		j.rejected = true
		j.err = fmt.Errorf("submit refused: %s", resp.Status)
		return j
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("submit: %s", resp.Status)
		return j
	case derr != nil:
		j.err = fmt.Errorf("submit: %w", derr)
		return j
	}

	state, err := r.follow(ctx, st.ID, &j)
	if err != nil {
		j.err = fmt.Errorf("job %s events: %w", st.ID, err)
		return j
	}
	if state != dsed.StateDone {
		j.err = fmt.Errorf("job %s ended %s", st.ID, state)
		return j
	}

	for i, ep := range []string{"result", "pareto", "recommend"} {
		code, data, err := r.get(ctx, "/v1/jobs/"+st.ID+"/"+ep)
		j.t[4+i] = time.Now()
		if err != nil {
			j.err = fmt.Errorf("job %s %s: %w", st.ID, ep, err)
			return j
		}
		if code != http.StatusOK {
			j.err = fmt.Errorf("job %s %s: status %d", st.ID, ep, code)
			return j
		}
		if msg := r.checkBody(st.ID, k, ep, data, &j); msg != "" {
			j.wrong = fmt.Sprintf("job %s %s: %s", st.ID, ep, msg)
			return j
		}
	}

	if tr != nil {
		root := tr.record(op, 0, spanJob, "", j.t[0], j.t[6])
		for i, name := range []string{spanSubmit, spanQueueWait, spanRun, spanResultFetch, spanParetoFetch, spanRecommendFetch} {
			tr.record(op, root, name, "", j.t[i], j.t[i+1])
		}
	}
	return j
}

// follow reads the job's server-sent events until its terminal state,
// stamping when running and the terminal state were first seen.
func (r *daemonRig) follow(ctx context.Context, id string, j *jobRun) (dsed.JobState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev dsed.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type != dsed.EventState {
			continue
		}
		now := time.Now()
		if ev.State == dsed.StateRunning && j.t[2].IsZero() {
			j.t[2] = now
		}
		if ev.State.Terminal() {
			if j.t[2].IsZero() {
				j.t[2] = now
			}
			j.t[3] = now
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// checkBody checks one read of a sealed job. Bodies for one trace must be
// byte-identical across jobs apart from the job ID they start with, and the
// sealed records must match the in-process reference sweep.
func (r *daemonRig) checkBody(id string, k int, ep string, data []byte, j *jobRun) string {
	prefix := `{"id":"` + id + `",`
	rest, ok := bytes.CutPrefix(data, []byte(prefix))
	if !ok {
		return "body does not start with the job ID"
	}
	h := sha256.New()
	h.Write(rest)
	r.mu.Lock()
	msg := r.expect.check(map[string]string{fmt.Sprintf("%s/%d", ep, k): sumHex(h)})
	r.mu.Unlock()
	if msg != "" || ep != "result" {
		return msg
	}
	var res dsed.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		return err.Error()
	}
	recs, err := dse.DecodeCanonicalRecords(res.Records, r.points)
	if err != nil {
		return err.Error()
	}
	got, err := recordsDigest(recs)
	if err != nil {
		return err.Error()
	}
	if !res.Sealed || got != r.refRecords[k] {
		return fmt.Sprintf("sealed records digest %s, reference %s", got, r.refRecords[k])
	}
	j.survivors, j.total = res.Survivors, res.Total
	return ""
}

// statusz reads the daemon's observability snapshot.
func (r *daemonRig) statusz(ctx context.Context) (dsed.Statusz, error) {
	var st dsed.Statusz
	code, data, err := r.get(ctx, "/statusz")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("statusz: status %d", code)
	}
	return st, json.Unmarshal(data, &st)
}

// runDaemon measures closed-loop clients submitting jobs to an in-process
// daemon.
func runDaemon(ctx context.Context, cfg runConfig) (*outcome, error) {
	size := cfg.Daemon
	out := newOutcome()
	exp := newExpectations(cfg.Pins)
	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	defer hs.close()
	heap := startHeapSampler()
	defer heap.close()

	// Set-up, repeated: each round rewrites the traces, recomputes the
	// references, and restarts the daemon on the same spool, so later
	// rounds also recover the jobs earlier ones left.
	var setups []timing
	var rig *daemonRig
	for i := 0; i < cfg.Setups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, fmt.Errorf("daemon drain: %w", err)
			}
		}
		hs.sample()
		runtime.GC()
		start := time.Now()
		rig, err = setupDaemon(ctx, cfg.Workdir, size, cfg.Seed, cfg.RefPins, exp, out)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, timing{time.Since(start).Seconds(), hs.mark()})
	}
	defer rig.close()
	before, err := rig.statusz(ctx)
	if err != nil {
		return nil, err
	}

	tr := (*tracer)(nil)
	if cfg.Traced {
		tr = newTracer()
		out.spans = tr
	}
	var (
		mu     sync.Mutex
		jobs   []jobRun
		traced []bool
		ops    []string
		// rounds[i] is the kernel sample taken before job i's round.
		rounds []int
	)
	var started atomic.Int64
	var finished atomic.Bool
	hs.sample()
	runtime.GC()
	heap.take()
	begin := time.Now()
	deadline := begin.Add(cfg.Duration)
	// runClient runs client c's closed loop of jobs until the round ends or
	// the measurement is over; *n numbers the client's jobs across rounds
	// and round is the kernel sample taken before the round.
	runClient := func(ctx context.Context, c int, rng *rand.Rand, n *int, roundEnd time.Time, round int) {
		for ; ctx.Err() == nil; *n++ {
			now := time.Now()
			if now.After(roundEnd) {
				return
			}
			if (started.Add(1) > int64(cfg.MinOps) && now.After(deadline)) || now.Sub(begin) > maxMeasure {
				finished.Store(true)
				return
			}
			// A traced run traces every other job of each client; the
			// difference between the two is the tracing overhead.
			isTraced := cfg.Traced && *n%2 == 1
			op := fmt.Sprintf("job-c%d-%d", c, *n)
			var jt *tracer
			if isTraced {
				jt = tr
			}
			j := rig.job(ctx, c, rng.Intn(len(rig.specs)), jt, op)
			mu.Lock()
			jobs = append(jobs, j)
			traced = append(traced, isTraced)
			ops = append(ops, op)
			rounds = append(rounds, round)
			mu.Unlock()
		}
	}
	var peaks []float64
	measured := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(heapWindow)
		defer t.Stop()
		for {
			select {
			case <-measured:
				return
			case <-t.C:
				peaks = append(peaks, heap.take())
			}
		}
	}()
	rngs := make([]*rand.Rand, size.Clients)
	next := make([]int, size.Clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(cfg.Seed*31 + int64(c)))
	}
	// The clients run in rounds of calibrateEvery, and the host-speed
	// kernel is timed between rounds, while no job is in flight.
	var calibrating time.Duration
	for ctx.Err() == nil && !finished.Load() {
		roundEnd := time.Now().Add(calibrateEvery)
		round := hs.mark()
		var wg sync.WaitGroup
		for c := 0; c < size.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runClient(ctx, c, rngs[c], &next[c], roundEnd, round)
			}()
		}
		wg.Wait()
		t := time.Now()
		hs.sample()
		calibrating += time.Since(t)
	}
	wall := (time.Since(begin) - calibrating).Seconds()
	close(measured)
	sampler.Wait()
	if len(peaks) == 0 {
		peaks = append(peaks, heap.take())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := rig.statusz(ctx)
	if err != nil {
		return nil, err
	}

	var lat []timing
	var sealed, plainLat, tracedLat, failedPts, survivorRatio []float64
	var tracedOps []string
	rejects := 0
	for i, j := range jobs {
		out.attempted++
		switch {
		case j.err != nil:
			if j.rejected {
				rejects++
			}
			out.fail(j.err.Error())
			continue
		case j.wrong != "":
			out.wrong(j.wrong)
			continue
		}
		lat = append(lat, timing{j.latency().Seconds(), rounds[i]})
		sealed = append(sealed, j.sealed().Seconds())
		failedPts = append(failedPts, float64(j.total-j.survivors))
		survivorRatio = append(survivorRatio, ratio(float64(j.survivors), float64(j.total)))
		if traced[i] {
			tracedLat = append(tracedLat, j.latency().Seconds())
			tracedOps = append(tracedOps, ops[i])
		} else {
			plainLat = append(plainLat, j.latency().Seconds())
		}
	}

	v := out.values
	scaleTimes(v, hs, setups, lat)
	v["peak_heap_mb"] = median(peaks)
	if !cfg.Traced {
		return out, nil
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	phase := func(name string) float64 { return median(opTotals(spans, tracedOps, name, "", nil)) }
	v["trace_overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
	v["guard.peak_heap_mb"] = float64(after.PeakHeap) / (1 << 20)
	v["dsed.submit_s_p50"] = phase(spanSubmit)
	v["dsed.queue_wait_s_p50"] = phase(spanQueueWait)
	v["dsed.run_s_p50"] = phase(spanRun)
	v["dsed.result_fetch_s_p50"] = phase(spanResultFetch)
	v["dsed.pareto_fetch_s_p50"] = phase(spanParetoFetch)
	v["dsed.recommend_fetch_s_p50"] = phase(spanRecommendFetch)
	v["dsed.sealed_latency_p50_s"] = median(sealed)
	v["dsed.sealed_latency_p90_s"] = quantile(sealed, 0.9)
	v["dsed.jobs_per_s"] = float64(len(sealed)) / wall
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	v["dsed.trace_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["dsed.journal_events_written"] = float64(after.Events.Written - before.Events.Written)
	v["dsed.admission_rejects"] = float64(rejects)
	v["dse.points_failed"] = median(failedPts)
	v["dse.survivor_ratio"] = median(survivorRatio)
	// Partition counters cover the traces the daemon's cache holds at the
	// end of the run.
	ph, pm := float64(after.Cache.PartitionHits), float64(after.Cache.PartitionMisses)
	v["memsim.partition_cache_hit_ratio"] = ratio(ph, ph+pm)
	v["memsim.partition_builds"] = pm
	for _, s := range selfTimeSpans {
		v["self_s."+s] = median(opTotals(spans, tracedOps, s, "", self))
	}
	pt := rig.prepared[len(rig.prepared)-1]
	if err := replaySample(tr, pt, rig.points, 0, size.ReplayPerType, v); err != nil {
		return nil, err
	}
	return out, nil
}
