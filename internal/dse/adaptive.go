package dse

import (
	"context"
	"fmt"

	"graphdse/internal/memsim"
	"graphdse/internal/ml"
)

// AdaptiveDSE is the paper's §V proposal made concrete: instead of
// simulating the full design space, simulate a small seed set, then let an
// active-learning loop pick which configurations to simulate next, stopping
// when the surrogate's uncertainty falls below a threshold or the budget is
// exhausted. The output is a surrogate usable in place of the simulator plus
// the set of simulated records.
type AdaptiveDSE struct {
	// Metric is the target to model (one of memsim.MetricNames).
	Metric string
	// InitialSamples simulated before the loop starts (default 16).
	InitialSamples int
	// BatchSize simulations per round (default 8).
	BatchSize int
	// MaxSimulations caps the total simulator budget (default 96).
	MaxSimulations int
	// SigmaTarget stops the loop once the maximum pool uncertainty (in
	// min-max-scaled target units) drops below it; 0 disables.
	SigmaTarget float64
	Seed        int64
}

// AdaptiveResult summarizes an adaptive exploration.
type AdaptiveResult struct {
	Simulated int
	Records   []RunRecord
	Model     *ml.RandomForest
	Scaler    *ml.MinMaxScaler
	YScaler   *ml.VecMinMaxScaler
	Rounds    []ml.ALRecord
	// PredictPoint returns the surrogate's estimate (original units) for an
	// arbitrary design point.
	PredictPoint func(p DesignPoint) float64
}

// Run executes the adaptive loop over the given space, labeling by real
// simulation of the prepared trace. The loop re-simulates the same trace
// dozens of times, so every oracle call shares pt's decoded arrays and
// partition cache. Every simulation runs under ctx.
func (a *AdaptiveDSE) Run(ctx context.Context, pt *memsim.PreparedTrace, points []DesignPoint, sweep SweepOptions) (*AdaptiveResult, error) {
	if a.Metric == "" {
		a.Metric = "Power"
	}
	if a.InitialSamples <= 0 {
		a.InitialSamples = 16
	}
	if a.BatchSize <= 0 {
		a.BatchSize = 8
	}
	if a.MaxSimulations <= 0 {
		a.MaxSimulations = 96
	}
	if len(points) < a.InitialSamples {
		return nil, fmt.Errorf("%w: %d points for %d initial samples", ErrNoData, len(points), a.InitialSamples)
	}
	// Feature pool, min-max scaled over the whole space (features are known
	// without simulation).
	raw := make([][]float64, len(points))
	for i, p := range points {
		raw[i] = p.FeatureVector()
	}
	scaler := &ml.MinMaxScaler{}
	pool, err := scaler.FitTransform(raw)
	if err != nil {
		return nil, err
	}

	res := &AdaptiveResult{Scaler: scaler}
	metricIdx := -1
	for mi, name := range memsim.MetricNames {
		if name == a.Metric {
			metricIdx = mi
		}
	}
	if metricIdx < 0 {
		return nil, fmt.Errorf("dse: unknown metric %q", a.Metric)
	}

	// Lazy oracle: simulate on first touch, caching per index.
	cache := map[int]float64{}
	simulate := func(i int) (float64, error) {
		if v, ok := cache[i]; ok {
			return v, nil
		}
		r, err := simulateOne(ctx, pt, points[i], sweep)
		if err != nil {
			return 0, err
		}
		v := r.MetricVector()[metricIdx]
		cache[i] = v
		res.Simulated++
		res.Records = append(res.Records, RunRecord{Point: points[i], Result: r})
		return v, nil
	}
	index := map[string]int{}
	for i, row := range pool {
		index[fmt.Sprint(row)] = i
	}
	var oracleErr error
	oracle := func(x []float64) float64 {
		v, err := simulate(index[fmt.Sprint(x)])
		if err != nil && oracleErr == nil {
			oracleErr = err
		}
		return v
	}

	maxRounds := (a.MaxSimulations - a.InitialSamples) / a.BatchSize
	if maxRounds < 1 {
		maxRounds = 1
	}
	al := &ml.ActiveLearner{BatchSize: a.BatchSize, Seed: a.Seed}
	rounds, err := al.Run(pool, oracle, nil, nil, a.InitialSamples, maxRounds)
	if err != nil {
		return nil, err
	}
	if oracleErr != nil {
		return nil, oracleErr
	}
	// Optional early-stop bookkeeping: truncate rounds after the sigma
	// target was met.
	if a.SigmaTarget > 0 {
		for i, r := range rounds {
			if r.MaxSigma > 0 && r.MaxSigma < a.SigmaTarget {
				rounds = rounds[:i+1]
				break
			}
		}
	}
	res.Rounds = rounds
	res.Model = al.Model()
	res.PredictPoint = func(p DesignPoint) float64 {
		return res.Model.Predict(scaler.TransformRow(p.FeatureVector()))
	}
	return res, nil
}

// simulateOne runs the memory simulator for a single point over the shared
// prepared trace.
func simulateOne(ctx context.Context, pt *memsim.PreparedTrace, p DesignPoint, sweep SweepOptions) (*memsim.Result, error) {
	recs, err := SweepPreparedContext(ctx, pt, []DesignPoint{p}, SweepOptions{
		FootprintLines: sweep.FootprintLines,
		Workers:        1,
	})
	if err != nil {
		return nil, err
	}
	if recs[0].Failed {
		return nil, recs[0].Err
	}
	return recs[0].Result, nil
}
