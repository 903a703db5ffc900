package main

import (
	"sort"
	"strings"

	"tcqr/internal/serve"
)

// def is one metric's definition as BENCHMARK.json declares it.
type def struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the server sees, reported by every
// workload with tracing off.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"optimality_max", "ratio", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// The metric prefix names the module measured; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []def{
	{"tcqr.factorize_ms_p50", "ms", "lower"},
	{"tcqr.solve_ms_p50", "ms", "lower"},
	{"tcqr.solve_multi_ms_p50", "ms", "lower"},
	{"tcqr.solve_multi_rhs_mean", "count", "higher"},
	{"tcqr.update_append_ms_p50", "ms", "lower"},
	{"tcqr.update_remove_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.cache_hit_frac", "ratio", "higher"},
	{"serve.coalesced_batch_mean", "count", "higher"},
	{"serve.refused_frac", "ratio", "lower"},
	{"serve.cache_key_ms", "ms", "lower"},
	{"serve.encode_ms_p50", "ms", "lower"},
	{"wirefmt.decode_ms_per_op", "ms", "lower"},
	{"wire.request_mb_per_op", "MB", "lower"},
	{"wire.json_decode_ms_per_op", "ms", "lower"},
	{"lls.cgls_iters_mean", "count", "lower"},
	{"lls.ms_per_iter", "ms", "lower"},
	{"lls.lsqr_fallbacks", "count", "lower"},
	{"blas.gemv64_gflops", "GFLOP/s", "higher"},
	{"tcsim.tc_gemm_calls_per_op", "count", "lower"},
	{"tcsim.tc_gemm_gflop_per_op", "GFLOP", "lower"},
	{"tcsim.sgemm_calls_per_op", "count", "lower"},
	{"tcsim.sgemm_gflop_per_op", "GFLOP", "lower"},
	{"tcsim.gemm_ms_per_op", "ms", "lower"},
	{"tcsim.gemm_gflops", "GFLOP/s", "higher"},
	{"gram.panel_calls_per_op", "count", "lower"},
	{"gram.panel_ms_per_op", "ms", "lower"},
	{"gram.escalations", "count", "lower"},
	{"rgs.self_ms_per_op", "ms", "lower"},
	{"tsqr.blocks_ms", "ms", "lower"},
	{"tsqr.reduce_ms", "ms", "lower"},
	{"tsqr.recover_ms", "ms", "lower"},
	{"replay.mismatches", "count", "lower"},
	{"unexplained_frac", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
	{"gen.late_ms_p90", "ms", "lower"},
}

// layerUnits maps each per-layer metric to its unit.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// replayMetrics are the rows the layer replay feeds: withheld together
// when any replayed factorization differs from the served one.
var replayMetrics = func() []string {
	var out []string
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "tcsim.") || strings.HasPrefix(d.name, "gram.") || strings.HasPrefix(d.name, "rgs.") {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}()

// batchMean is the mean number of solves per coalesced flush since the
// counters read before.
func batchMean(s *serve.Server, before serve.CoalescerStats) float64 {
	st := s.CoalescerStats()
	solves := st.BatchedRequests + st.SingleSolveCalls - before.BatchedRequests - before.SingleSolveCalls
	return frac(float64(solves), float64(st.Batches-before.Batches))
}

// setGemmCounts reports the GEMM observer's exact counts per op, labelled
// by engine: TC-GEMM is the fp16 TensorCore simulant the recursion runs
// on, SGEMM the fp32 GEMMs inside the panels.
func setGemmCounts(out *outcome, g *gemmCounter, ops float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out.set("tcsim.tc_gemm_calls_per_op", "count", frac(float64(g.calls["TC-GEMM"]), ops))
	out.set("tcsim.tc_gemm_gflop_per_op", "GFLOP", frac(g.flops["TC-GEMM"], ops)/1e9)
	out.set("tcsim.sgemm_calls_per_op", "count", frac(float64(g.calls["SGEMM"]), ops))
	out.set("tcsim.sgemm_gflop_per_op", "GFLOP", frac(g.flops["SGEMM"], ops)/1e9)
}
