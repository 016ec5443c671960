package main

import (
	"runtime/metrics"
	"time"

	"graphdse/internal/dse"
	"graphdse/internal/ml"
)

// timedModel wraps a Table I regressor so the traced run can time Fit and
// Predict from outside internal/ml. dse.TrainAndEvaluateContext predicts a
// model's test rows back to back right after fitting it, so the predict
// span runs from the first Predict call to the last.
type timedModel struct {
	inner ml.Regressor
	name  string

	fitStart, fitEnd   time.Time
	predStart, predEnd time.Time
	predicted          bool
	// allocs counts the heap allocations made during Fit.
	allocs uint64
}

func (m *timedModel) Fit(X [][]float64, y []float64) error {
	a := heapAllocs()
	m.fitStart = time.Now()
	err := m.inner.Fit(X, y)
	m.fitEnd = time.Now()
	m.allocs = heapAllocs() - a
	return err
}

func (m *timedModel) Predict(x []float64) float64 {
	start := time.Now()
	v := m.inner.Predict(x)
	if !m.predicted {
		m.predStart, m.predicted = start, true
	}
	m.predEnd = time.Now()
	return v
}

// timedModels wraps each model factory and keeps the models built since
// the last flush, so a pass's fit and predict spans can be recorded once
// the pass has ended and its train span is known. Training is sequential,
// so the factories need no lock.
type timedModels struct {
	specs []dse.ModelSpec
	built []*timedModel
}

func newTimedModels(base []dse.ModelSpec) *timedModels {
	tm := &timedModels{}
	for _, spec := range base {
		tm.specs = append(tm.specs, dse.ModelSpec{Name: spec.Name, New: func() ml.Regressor {
			m := &timedModel{inner: spec.New(), name: spec.Name}
			tm.built = append(tm.built, m)
			return m
		}})
	}
	return tm
}

// flush records the fit and predict spans of every model built since the
// last flush under parent and returns the heap allocations their Fit
// calls made.
func (tm *timedModels) flush(tr *tracer, op string, parent int64) uint64 {
	var allocs uint64
	for _, m := range tm.built {
		tr.record(op, parent, spanFit, m.name, m.fitStart, m.fitEnd)
		if m.predicted {
			tr.record(op, parent, spanPredict, m.name, m.predStart, m.predEnd)
		}
		allocs += m.allocs
	}
	tm.built = tm.built[:0]
	return allocs
}

// heapAllocs returns the cumulative count of heap allocations, tiny ones
// included. runtime/metrics reads it without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}
