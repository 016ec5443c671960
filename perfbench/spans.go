package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"graphdse/internal/artifact"
)

// span is one timed call into a layer. Spans of one operation (a workflow
// pass or a daemon job) share Op; Parent links a span to the span that
// caused it (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	// Detail qualifies the span: the model of an ml.fit or ml.predict span,
	// the memory type of a memsim.replay span.
	Detail string `json:"detail,omitempty"`
	// StartNS and EndNS are offsets from the tracer's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a span with explicit bounds and returns its ID (0 when t is
// nil).
func (t *tracer) record(op string, parent int64, name, detail string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name, Detail: detail,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	spans := t.snapshot()
	return artifact.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (clipped to the span), keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		curStart, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
			if b <= a {
				continue
			}
			if a > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		covered += curEnd - curStart
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// opTotals sums, per operation, the duration of spans matching name (and
// detail, when non-empty) — or their self time when self is set — and
// returns the per-operation totals in seconds for the given operations.
// An operation without a matching span contributes 0.
func opTotals(spans []span, ops []string, name, detail string, self map[int64]time.Duration) []float64 {
	sum := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name != name || (detail != "" && s.Detail != detail) {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		sum[s.Op] += d
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sum[op].Seconds()
	}
	return out
}
