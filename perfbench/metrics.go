package main

// kind separates the two metric sets: end-to-end metrics come from untraced
// runs (--trace 0) and carry a regression bound; per-layer metrics come from
// traced runs (--trace 1) and carry none.
type kind int

const (
	endToEnd kind = iota
	perLayer
)

// metricDef is one row of the metric table. BENCHMARK.json lists the same
// rows (TestBenchmarkJSONMatchesMetricTable keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   kind
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
}

// Every run prints every metric of its kind. A layer a workload does not
// exercise reports 0 (for example ml.* on daemon-jobs, which never trains).
var metricTable = []metricDef{
	{"setup_s", "s", "lower", endToEnd, 0.25},
	{"time_to_recommendation_s", "s", "lower", endToEnd, 0.25},
	{"peak_heap_mb", "MB", "lower", endToEnd, 0.05},
	{"ok_frac", "frac", "higher", endToEnd, 0.01},

	{"failed_frac", "frac", "lower", perLayer, 0},
	{"trace_overhead_frac", "frac", "lower", perLayer, 0},
	{"time_to_recommendation_p90_s", "s", "lower", perLayer, 0},

	{"sysim.trace_s", "s", "lower", perLayer, 0},
	{"sysim.events", "count", "lower", perLayer, 0},

	{"memsim.prepare_s", "s", "lower", perLayer, 0},
	{"memsim.partition_cache_hit_ratio", "frac", "higher", perLayer, 0},
	{"memsim.partition_builds", "count", "lower", perLayer, 0},
	{"memsim.replay_ns_per_event.DRAM", "ns", "lower", perLayer, 0},
	{"memsim.replay_ns_per_event.NVM", "ns", "lower", perLayer, 0},
	{"memsim.replay_ns_per_event.Hybrid", "ns", "lower", perLayer, 0},

	{"dse.sweep_s", "s", "lower", perLayer, 0},
	{"dse.points_per_s", "1/s", "higher", perLayer, 0},
	{"dse.points_failed", "count", "lower", perLayer, 0},
	{"dse.points_retried", "count", "lower", perLayer, 0},
	{"dse.survivor_ratio", "frac", "higher", perLayer, 0},
	{"dse.gate_s", "s", "lower", perLayer, 0},
	{"dse.dataset_s", "s", "lower", perLayer, 0},
	{"dse.recommend_s", "s", "lower", perLayer, 0},

	{"ml.train_s", "s", "lower", perLayer, 0},
	{"ml.fit_s.Linear", "s", "lower", perLayer, 0},
	{"ml.fit_s.SVM", "s", "lower", perLayer, 0},
	{"ml.fit_s.RF", "s", "lower", perLayer, 0},
	{"ml.fit_s.GB", "s", "lower", perLayer, 0},
	{"ml.predict_s", "s", "lower", perLayer, 0},
	{"ml.allocs_per_train", "count", "lower", perLayer, 0},
	{"ml.table1_mean_r2", "r2", "higher", perLayer, 0},

	{"dsed.submit_s_p50", "s", "lower", perLayer, 0},
	{"dsed.queue_wait_s_p50", "s", "lower", perLayer, 0},
	{"dsed.run_s_p50", "s", "lower", perLayer, 0},
	{"dsed.result_fetch_s_p50", "s", "lower", perLayer, 0},
	{"dsed.pareto_fetch_s_p50", "s", "lower", perLayer, 0},
	{"dsed.recommend_fetch_s_p50", "s", "lower", perLayer, 0},
	{"dsed.sealed_latency_p50_s", "s", "lower", perLayer, 0},
	{"dsed.sealed_latency_p90_s", "s", "lower", perLayer, 0},
	{"dsed.jobs_per_s", "1/s", "higher", perLayer, 0},
	{"dsed.trace_cache_hit_ratio", "frac", "higher", perLayer, 0},
	{"dsed.journal_events_written", "count", "lower", perLayer, 0},
	{"dsed.admission_rejects", "count", "lower", perLayer, 0},

	{"guard.peak_heap_mb", "MB", "lower", perLayer, 0},

	{"host.kernel_s", "s", "lower", perLayer, 0},
	{"host.wall_time_to_recommendation_s", "s", "lower", perLayer, 0},
}

// selfTimeSpans names the spans with child spans; the traced run reports
// their self time (duration minus the part covered by child spans) as
// self_s.<span>, the median over traced operations of the per-operation
// total. A span without children would report its own duration again.
var selfTimeSpans = []string{spanPass, spanTrain}

// Span names: one per public call into a layer (paper-workflow) or per
// client-observed phase of a daemon job.
const (
	spanPass      = "pass"
	spanSysim     = "sysim.trace"
	spanPrepare   = "memsim.prepare"
	spanSweep     = "dse.sweep"
	spanGate      = "dse.gate"
	spanDataset   = "dse.dataset"
	spanTrain     = "dse.train"
	spanFit       = "ml.fit"
	spanPredict   = "ml.predict"
	spanRecommend = "dse.recommend"
	spanReplay    = "memsim.replay"

	spanJob            = "job"
	spanSubmit         = "dsed.submit"
	spanQueueWait      = "dsed.queue_wait"
	spanRun            = "dsed.run"
	spanResultFetch    = "dsed.result_fetch"
	spanParetoFetch    = "dsed.pareto_fetch"
	spanRecommendFetch = "dsed.recommend_fetch"
)

func init() {
	for _, s := range selfTimeSpans {
		metricTable = append(metricTable, metricDef{"self_s." + s, "s", "lower", perLayer, 0})
	}
}
