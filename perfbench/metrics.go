package main

import "fmt"

// endToEnd lists every end-to-end metric with its unit, in BENCHMARK.json
// order; every untraced run prints all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"objective_mean", "J"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order; every traced run prints all of them. A workload whose requests
// never reach a layer reports that layer's metrics as 0 (README.md lists
// which layers each workload bypasses).
var perLayer = []struct{ name, unit string }{
	{"exp.fig2a_s", "s"}, {"exp.fig2b_s", "s"}, {"exp.fig2c_s", "s"}, {"exp.fig2d_s", "s"},
	{"exp.fig2e_s", "s"}, {"exp.fig2f_s", "s"}, {"exp.fig2g_s", "s"}, {"exp.fig2h_s", "s"},
	{"core.formulation_ms", "ms"},
	{"milp.solve_ms", "ms"},
	{"milp.nodes", "count"},
	{"lp.root_ms", "ms"},
	{"lp.root_pivots", "count"},
	{"lp.pivots", "count"},
	{"lp.dual_pivots", "count"},
	{"lp.refactors", "count"},
	{"lp.warm_ok_ratio", "1"},
	{"lp.us_per_pivot", "us"},
	{"runner.busy_ratio", "1"},
	{"service.http_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"spec.hash_us", "us"},
	{"spec.build_ms", "ms"},
	{"noc.mesh_ms", "ms"},
	{"core.heuristic_ms", "ms"},
	{"core.p1_ms", "ms"},
	{"core.p2_ms", "ms"},
	{"core.p3_ms", "ms"},
	{"core.repair_ms", "ms"},
	{"core.metrics_ms", "ms"},
	{"cache.hit_ratio", "1"},
	{"cache.hits", "count"},
	{"cache.stage_us", "us"},
	{"runner.queue_wait_ms_p50", "ms"},
	{"runner.queue_wait_ms_p99", "ms"},
	{"archive.append_us", "us"},
	{"archive.dropped", "count"},
	{"obs.events_per_req", "count"},
	{"service.alloc_kb_per_req", "KB"},
	{"engine.solve_ms", "ms"},
	{"engine.overhead_ms", "ms"},
	{"engine.applies_per_req", "count"},
	{"engine.improved_ratio", "1"},
	{"engine.op.heuristic_ms", "ms"},
	{"engine.op.repair_ms", "ms"},
	{"engine.op.improve_ms", "ms"},
	{"engine.op.paths_ms", "ms"},
	{"engine.op.anneal_ms", "ms"},
	{"trace.overhead_ratio", "1"},
}

// setBypassed reports every per-layer metric the traced run did not
// measure as 0: the workload bypasses that layer.
func (o *outcome) setBypassed() {
	var zero []string
	for _, m := range perLayer {
		if _, ok := o.res.Metrics[m.name]; !ok {
			o.set(m.name, 0, m.unit)
			zero = append(zero, m.name)
		}
	}
	o.note("bypassed", zero)
}

// checkMetrics confirms a run printed exactly the metrics of its mode,
// each with the unit BENCHMARK.json gives it.
func checkMetrics(o *outcome, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(o.res.Metrics) != len(want) {
		return fmt.Errorf("printed %d metrics, want %d", len(o.res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := o.res.Metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
	return nil
}
