package main

import "fmt"

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. A traced run of any workload reports all of them; a
// layer the workload does not exercise reads 0. README.md maps each to
// the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	// ap-aoa: the per-packet pipeline, replayed stage by stage.
	{"radio.calibrate_us", "us"},
	{"detect.find_us", "us"},
	{"music.covariance_us", "us"},
	{"cmat.eig_us", "us"},
	{"music.spectrum_us", "us"},
	{"signature.extract_us", "us"},
	{"core.stage_detect_us", "us"},
	{"core.stage_estimate_us", "us"},
	{"core.allocs_per_op", "count"},
	{"core.bytes_per_op", "B"},
	{"core.scratch_miss_frac", "fraction"},
	{"layer_sum_ratio", "ratio"},
	{"radio.receive_us", "us"},
	{"within_2.5deg_frac", "fraction"},
	// Fleet: per-frame costs.
	{"netproto.encode_ns_per_report", "ns"},
	{"netproto.decode_ns_per_report", "ns"},
	{"netproto.frames_per_pair", "count"},
	{"netproto.wire_bytes_per_pair", "B"},
	{"go.allocs_per_pair", "count"},
	{"agent.send_us_per_pair", "us"},
	{"wire_residual_us", "us"},
	// Fleet: per-report controller costs.
	{"partition.ingest_ns_per_report", "ns"},
	{"journal.append_ns_per_record", "ns"},
	{"journal.records_per_fsync", "count"},
	{"journal.encode_ns_per_record", "ns"},
	{"journal.records_per_pair", "count"},
	{"journal.bytes_per_pair", "B"},
	{"fusion.decisions_per_pair", "count"},
	{"fusion.dup_dropped", "count"},
	{"fusion.pending_expired", "count"},
	{"ops.log_lines_per_pair", "count"},
	{"trace.spans_per_pair", "count"},
	{"trace.retained", "count"},
	// Fleet: the attack path.
	{"defense.spoof_ns", "ns"},
	{"defense.directives_per_attack", "count"},
	{"controller.directive_ack_us", "us"},
	{"directive_p50_us", "us"},
	// incident: the journal read path.
	{"journal.read_us_per_query", "us"},
	{"journal.decode_us_per_query", "us"},
	{"journal.records_per_query", "count"},
	{"journal.bytes_per_query", "B"},
	{"journal.segments", "count"},
	{"incident.entries_per_query", "count"},
	// Diagnostics, never gated.
	{"e2e.p50_us", "us"},
	{"e2e.p90_us", "us"},
	{"e2e.p99_us", "us"},
	{"e2e.ops_per_s", "1/s"},
	{"e2e.pairs_per_s", "1/s"},
	{"e2e.directive_p99_us", "us"},
	{"e2e.samples", "count"},
	{"e2e.attacks", "count"},
	{"go.gc_cycles", "count"},
	{"tracing_overhead_us", "us"},
}

// layerMetrics collects a traced run's per-layer values by name.
type layerMetrics map[string]float64

// fill copies m into res, reporting every per-layer metric (0 where m
// has none). A name outside perLayer is a bug in the workload.
func (m layerMetrics) fill(res *result) {
	known := map[string]bool{}
	for _, l := range perLayer {
		known[l.name] = true
		res.set(l.name, m[l.name], l.unit)
	}
	for k := range m {
		if !known[k] {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not in perLayer", k))
		}
	}
}
