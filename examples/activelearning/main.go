// Activelearning: the paper's proposed future-work extension (§V) — an
// uncertainty-sampling active-learning loop over the memory design space.
// The memory simulator is the labeling oracle; a random-forest surrogate's
// across-tree variance picks which configurations to simulate next. The
// control arm labels the same budget uniformly at random, so the label
// efficiency of uncertainty sampling is measured directly.
package main

import (
	"context"
	"fmt"
	"log"

	"graphdse/internal/dse"
	"graphdse/internal/memsim"
	"graphdse/internal/ml"
	"graphdse/internal/sysim"
)

func main() {
	machine, _, err := sysim.PaperWorkloadTraceContext(context.Background(), sysim.DefaultConfig(), 512, 8, 42, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	pt, err := memsim.Prepare(machine.Trace())
	if err != nil {
		log.Fatal(err)
	}
	footprint := int(machine.Layout().Footprint()) / 64

	// The pool: every design point's feature vector. The oracle simulates a
	// point on demand and returns its total-latency metric — the hardest
	// response in Table I (lowest R² for every model but SVM).
	points := dse.EnumerateSpace(dse.SpaceParams{})
	pool := make([][]float64, len(points))
	for i, p := range points {
		pool[i] = p.FeatureVector()
	}
	var xs ml.MinMaxScaler
	pool, err = xs.FitTransform(pool)
	if err != nil {
		log.Fatal(err)
	}
	cache := map[int]float64{}
	simulations := 0
	oracleAt := func(i int) float64 {
		if v, ok := cache[i]; ok {
			return v
		}
		sim, err := memsim.New(points[i].Config(footprint))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.RunPrepared(pt)
		if err != nil {
			log.Fatal(err)
		}
		simulations++
		cache[i] = res.AvgTotalLatency
		return cache[i]
	}
	// Index lookup by row identity (rows are unique after scaling since the
	// design points are unique).
	index := map[string]int{}
	for i, row := range pool {
		index[fmt.Sprint(row)] = i
	}
	oracle := func(x []float64) float64 { return oracleAt(index[fmt.Sprint(x)]) }

	// Held-out test set: every 7th point, fully labeled.
	var testX [][]float64
	var testY []float64
	for i := 0; i < len(pool); i += 7 {
		testX = append(testX, pool[i])
		testY = append(testY, oracleAt(i))
	}

	al := &ml.ActiveLearner{BatchSize: 8, Seed: 3}
	alRecs, err := al.Run(pool, oracle, testX, testY, 20, 12)
	if err != nil {
		log.Fatal(err)
	}
	rndRecs, err := ml.RandomSampler(pool, oracle, testX, testY, 20, 8, 12, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Active learning (uncertainty sampling) vs random sampling,")
	fmt.Println("predicting total latency (the hardest Table I metric) from configuration:")
	fmt.Printf("%-8s %-10s %-14s %-14s\n", "round", "labels", "AL test MSE", "random MSE")
	for i := range alRecs {
		rnd := "-"
		if i < len(rndRecs) {
			rnd = fmt.Sprintf("%.3e", rndRecs[i].TestMSE)
		}
		fmt.Printf("%-8d %-10d %-14.3e %-14s\n", alRecs[i].Round, alRecs[i].Labeled, alRecs[i].TestMSE, rnd)
	}
	last := alRecs[len(alRecs)-1]
	fmt.Printf("\nAL reached MSE %.3e with %d labels (%d simulator calls including the test set).\n",
		last.TestMSE, last.Labeled, simulations)
}
