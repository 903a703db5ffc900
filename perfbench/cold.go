package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"tcqr"
	"tcqr/internal/serve"
	"tcqr/internal/tcsim"
	"tcqr/internal/wirefmt"
)

// coldShape is one cold workload: a closed loop with one client, each op a
// binary /v1/solve frame [meta, A, b] with a fresh matrix, so every op
// misses the cache and factorizes. The first and then every
// coldUpdateEvery-th solve is followed by a binary /v1/update on the key it
// just created, alternating append and remove of a 16-row block.
type coldShape struct {
	rows, cols int
}

const (
	coldUpdateEvery = 10
	setupReps       = 3
	// warmupIndex offsets the op indices of the set-up warm-up ops, so they
	// never collide with a timed op's matrix (and cache key).
	warmupIndex = 1 << 30
)

// coldOp is what the client saw of one cold solve or update.
type coldOp struct {
	lat      float64 // ms, send to response
	st       stages
	iters    int
	lsqr     int
	panel    int
	cached   bool
	reqBytes int
	code     int
	ok       bool
	opt      float64
	update   opKind // opSolve for solves
}

// coldTrace is the traced pass's per-op layer timings.
type coldTrace struct {
	backend, decode, cacheKey []float64 // ms per op
	jsonDecode                []float64 // ms per solve, metadata section
	replays                   []replayResult
	tsqrBlocks, tsqrReduce    []float64
	tsqrRecover               []float64
}

// coldRun is one measured pass over a cold workload.
type coldRun struct {
	ops       []coldOp
	elapsed   time.Duration
	allocMB   float64
	tb        *timingBackend
	gemm      *gemmCounter
	trace     coldTrace
	batchMean float64 // solves per coalesced flush
}

// coldSetup builds a server and runs one untimed cold op on it, returning
// the server and the set-up wall time (serve.New to ready for the first
// timed op). The warm-up op's frame is generated before the clock starts.
func coldSetup(g *coldGen, rep int, backend serve.Backend) (*serve.Server, time.Duration, error) {
	if err := g.op(warmupIndex + rep); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	s := newServer(backend)
	rec, err := post(s.Handler(), "/v1/solve", g.frame, true)
	if err != nil {
		s.Close()
		return nil, 0, err
	}
	if rec.code != http.StatusOK {
		s.Close()
		return nil, 0, fmt.Errorf("warm-up solve: status %d: %s", rec.code, rec.body.String())
	}
	return s, time.Since(t0), nil
}

// minSolves is the solve count an untraced cold pass reaches before it
// stops, so at least ten latency samples lie beyond its p90.
const minSolves = 101

// runColdPass drives s for d with one closed-loop client; with minN > 0 it
// keeps going past d (up to 2d) until minN solves were timed. With tb non-nil
// (the traced pass, s built on tb) it also replays every op's factorization
// through timed layers and times the wire decode and cache-key derivation
// of its inputs — all outside the op's own latency.
func runColdPass(s *serve.Server, g *coldGen, d time.Duration, minN int, tb *timingBackend) (*coldRun, error) {
	h := s.Handler()
	run := &coldRun{tb: tb}
	var chk checker
	var upd []byte
	if tb != nil {
		run.gemm = newGemmCounter()
		unregister := tcsim.RegisterGemmObserver(run.gemm.observe)
		defer unregister()
	}
	scratch := make([]wirefmt.Section, 0, 4)
	stats0 := s.CoalescerStats()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	updates := 0
	for i := 0; ; i++ {
		if el := time.Since(start); el >= 2*d || (el >= d && i >= minN) {
			break
		}
		if err := g.op(i); err != nil {
			return nil, err
		}
		op := coldOp{reqBytes: len(g.frame)}
		t0 := time.Now()
		rec, err := post(h, "/v1/solve", g.frame, true)
		if err != nil {
			return nil, err
		}
		op.lat = ms(time.Since(t0))
		op.st = parseServerTiming(rec.hdr.Get("Server-Timing"))
		op.code = rec.code
		var meta solveMetaResp
		if rec.code == http.StatusOK {
			x, derr := decodeFrameResp(rec.body.Bytes(), &meta)
			if derr == nil {
				op.opt, op.ok = chk.accept(g.a, g.normF, g.b, x)
			}
			op.iters, op.cached = meta.Iterations, meta.Cached
			op.lsqr, op.panel = countHazards(meta.Hazards)
		}
		run.ops = append(run.ops, op)
		if tb != nil {
			run.traceOp(s, g, meta.Key, scratch)
		}
		if i%coldUpdateEvery != 0 || !op.ok {
			continue
		}
		kind := opAppend
		if updates%2 == 1 {
			kind = opRemove
		}
		updates++
		if upd, err = g.updateFrame(upd, i, meta.Key, kind == opAppend); err != nil {
			return nil, err
		}
		uop := coldOp{reqBytes: len(upd), update: kind}
		t0 = time.Now()
		rec, err = post(h, "/v1/update", upd, true)
		if err != nil {
			return nil, err
		}
		uop.lat = ms(time.Since(t0))
		uop.st = parseServerTiming(rec.hdr.Get("Server-Timing"))
		uop.code = rec.code
		if rec.code == http.StatusOK {
			var ur keyResp
			if _, derr := decodeFrameResp(rec.body.Bytes(), &ur); derr == nil {
				want := g.a.Rows + updateRows
				if kind == opRemove {
					want = g.a.Rows - updateRows
				}
				uop.ok = ur.Rows == want && ur.Cols == g.a.Cols && ur.Epoch == 1
			}
		}
		if tb != nil {
			run.trace.backend = append(run.trace.backend, tb.take())
		}
		run.ops = append(run.ops, uop)
	}
	run.elapsed = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	run.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	run.batchMean = batchMean(s, stats0)
	return run, nil
}

// traceOp collects the traced pass's layer timings of the solve just served:
// backend time, a timed wirefmt.Decode of its frame and encoding/json decode
// of its metadata, a timed CacheKey of its matrix, and the layer replay of
// its factorization.
func (run *coldRun) traceOp(s *serve.Server, g *coldGen, key string, scratch []wirefmt.Section) {
	tr := &run.trace
	tr.backend = append(tr.backend, run.tb.take())
	t0 := time.Now()
	_, err := wirefmt.Decode(g.frame, scratch)
	tr.decode = append(tr.decode, ms(time.Since(t0)))
	tr.jsonDecode = append(tr.jsonDecode, timeJSONDecode(solveMeta))
	t0 = time.Now()
	_ = serve.CacheKey(g.a, tcqr.Config{})
	tr.cacheKey = append(tr.cacheKey, ms(time.Since(t0)))
	if err != nil {
		tr.replays = append(tr.replays, replayResult{})
		return
	}

	e, ok := s.Cache().Get(key)
	if !ok {
		tr.replays = append(tr.replays, replayResult{})
		return
	}
	defer s.Cache().Release(e)
	run.gemm.paused.Store(true)
	tr.replays = append(tr.replays, replay(tcqr.ToFloat32(g.a), e.F))
	run.gemm.paused.Store(false)
	if ts := e.F.TSQR; ts != nil {
		var blocks time.Duration
		for _, b := range ts.BlockFactor {
			blocks += b
		}
		tr.tsqrBlocks = append(tr.tsqrBlocks, ms(blocks))
		tr.tsqrReduce = append(tr.tsqrReduce, ms(ts.Reduce))
		tr.tsqrRecover = append(tr.tsqrRecover, ms(ts.Recover))
	}
}

// solves returns the latencies of the pass's solves, and of its appends and
// removes.
func (run *coldRun) latencies() (solve, appends, removes []float64) {
	for _, op := range run.ops {
		switch op.update {
		case opSolve:
			solve = append(solve, op.lat)
		case opAppend:
			appends = append(appends, op.lat)
		case opRemove:
			removes = append(removes, op.lat)
		}
	}
	return solve, appends, removes
}

func runCold(shape coldShape, seed int64, seconds float64, traced bool) (*outcome, error) {
	g := newColdGen(seed, shape.rows, shape.cols)
	out := newOutcome()
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		var setups []float64
		var s *serve.Server
		for r := 0; r < setupReps; r++ {
			if s != nil {
				s.Close()
			}
			var sd time.Duration
			var err error
			if s, sd, err = coldSetup(g, r, nil); err != nil {
				return nil, err
			}
			setups = append(setups, sd.Seconds())
		}
		defer s.Close()
		run, err := runColdPass(s, g, d, minSolves, nil)
		if err != nil {
			return nil, err
		}
		coldEndToEnd(out, run, quantile(setups, 0.5))
		return out, nil
	}
	// Traced run: an untraced pass and a traced pass of half the time each,
	// so trace_overhead_frac compares like with like.
	s, _, err := coldSetup(g, 0, nil)
	if err != nil {
		return nil, err
	}
	plain, err := runColdPass(s, g, d/2, 0, nil)
	s.Close()
	if err != nil {
		return nil, err
	}
	tb := &timingBackend{}
	s, _, err = coldSetup(g, 1, tb)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	tb.reset()
	run, err := runColdPass(s, g, d/2, 0, tb)
	if err != nil {
		return nil, err
	}
	coldLayers(out, run, plain, g)
	return out, nil
}

// coldEndToEnd fills the end-to-end metrics of an untraced cold pass.
func coldEndToEnd(out *outcome, run *coldRun, setup float64) {
	solve, appends, removes := run.latencies()
	var okOps int
	optMax := 0.0
	for _, op := range run.ops {
		out.count(op.ok, op.code)
		if !op.ok {
			continue
		}
		okOps++
		if op.opt > optMax {
			optMax = op.opt
		}
	}
	p90 := quantile(solve, 0.9)
	out.set("setup_s", "s", setup)
	out.set("latency_p50_ms", "ms", quantile(solve, 0.5))
	out.set("latency_p90_ms", "ms", p90)
	out.set("update_p50_ms", "ms", updateP50(appends, removes))
	out.set("throughput_ops_s", "1/s", float64(okOps)/run.elapsed.Seconds())
	out.set("optimality_max", "ratio", optMax)
	out.set("alloc_mb_per_op", "MB", run.allocMB/float64(len(run.ops)))
	out.detail["latency_samples"] = len(solve)
	out.detail["latency_beyond_p90"] = beyond(solve, p90)
	out.detail["update_samples"] = map[string]int{"append": len(appends), "remove": len(removes)}
	out.detail["failed_frac"] = frac(float64(out.failed), float64(out.attempted))
}

// coldLayers fills the per-layer metrics of a traced cold run.
func coldLayers(out *outcome, run, plain *coldRun, g *coldGen) {
	for _, op := range plain.ops {
		out.count(op.ok, op.code)
	}
	tr, tb := run.trace, run.tb
	var solves, hits, iters, lsqr, panel, refused float64
	var queue, encode, perIter, reqMB []float64
	// unexplained: each op's latency minus its measured layers — queue wait,
	// backend time, encode, and for solves the frame decode and cache key.
	var latSum, layerSum float64
	si := 0
	for i, op := range run.ops {
		out.count(op.ok, op.code)
		if op.code != http.StatusOK {
			refused++
		}
		reqMB = append(reqMB, float64(op.reqBytes)/1e6)
		queue = append(queue, op.st.queue)
		encode = append(encode, op.st.encode)
		latSum += op.lat
		layerSum += op.st.queue + tr.backend[i] + op.st.encode
		if op.update != opSolve {
			continue
		}
		layerSum += tr.decode[si] + tr.jsonDecode[si] + tr.cacheKey[si]
		si++
		solves++
		if op.cached {
			hits++
		}
		iters += float64(op.iters)
		lsqr += float64(op.lsqr)
		panel += float64(op.panel)
		if op.iters > 0 {
			perIter = append(perIter, op.st.solve/float64(op.iters))
		}
	}
	out.set("tcqr.factorize_ms_p50", "ms", quantile(tb.factorize, 0.5))
	out.set("tcqr.solve_ms_p50", "ms", quantile(tb.solve, 0.5))
	out.set("tcqr.update_append_ms_p50", "ms", quantile(tb.appendT, 0.5))
	out.set("tcqr.update_remove_ms_p50", "ms", quantile(tb.removeT, 0.5))
	out.set("serve.queue_wait_ms_p50", "ms", quantile(queue, 0.5))
	out.set("serve.cache_hit_frac", "ratio", frac(hits, solves))
	out.set("serve.coalesced_batch_mean", "count", run.batchMean)
	out.set("serve.refused_frac", "ratio", frac(refused, float64(len(run.ops))))
	out.set("serve.cache_key_ms", "ms", quantile(tr.cacheKey, 0.5))
	out.set("serve.encode_ms_p50", "ms", quantile(encode, 0.5))
	out.set("wirefmt.decode_ms_per_op", "ms", mean(tr.decode))
	out.set("wire.json_decode_ms_per_op", "ms", mean(tr.jsonDecode))
	out.set("wire.request_mb_per_op", "MB", mean(reqMB))
	out.set("lls.cgls_iters_mean", "count", frac(iters, solves))
	out.set("lls.ms_per_iter", "ms", quantile(perIter, 0.5))
	out.set("lls.lsqr_fallbacks", "count", lsqr)
	out.set("blas.gemv64_gflops", "GFLOP/s", gemvGflops(g.base, 200*time.Millisecond))
	setGemmCounts(out, run.gemm, solves)
	var gemmMS, gemmFlops, panelMS, panelCalls, selfMS []float64
	mismatches := 0
	for _, r := range tr.replays {
		if !r.bitExact {
			mismatches++
		}
		gemmMS = append(gemmMS, r.gemm)
		gemmFlops = append(gemmFlops, r.gemmFlops)
		panelMS = append(panelMS, r.panel)
		panelCalls = append(panelCalls, float64(r.panelCalls))
		selfMS = append(selfMS, r.total-r.gemm-r.panel)
	}
	out.set("replay.mismatches", "count", float64(mismatches))
	out.set("tcsim.gemm_ms_per_op", "ms", mean(gemmMS))
	out.set("tcsim.gemm_gflops", "GFLOP/s", frac(sum(gemmFlops)/1e9, sum(gemmMS)/1e3))
	out.set("gram.panel_calls_per_op", "count", mean(panelCalls))
	out.set("gram.panel_ms_per_op", "ms", mean(panelMS))
	out.set("gram.escalations", "count", panel)
	out.set("rgs.self_ms_per_op", "ms", mean(selfMS))
	if len(tr.tsqrBlocks) > 0 {
		out.set("tsqr.blocks_ms", "ms", quantile(tr.tsqrBlocks, 0.5))
		out.set("tsqr.reduce_ms", "ms", quantile(tr.tsqrReduce, 0.5))
		out.set("tsqr.recover_ms", "ms", quantile(tr.tsqrRecover, 0.5))
		// The TSQR route runs every GEMM in plain fp32: no engine GEMM.
		out.na("tcsim.gemm_ms_per_op", "tcsim.gemm_gflops")
	} else {
		out.na("tsqr.blocks_ms", "tsqr.reduce_ms", "tsqr.recover_ms")
	}
	out.na("tcqr.solve_multi_ms_p50", "tcqr.solve_multi_rhs_mean", "gen.late_ms_p90")
	if mismatches > 0 {
		out.withhold(replayMetrics...)
	}
	out.set("unexplained_frac", "ratio", frac(latSum-layerSum, latSum))
	plainSolve, _, _ := plain.latencies()
	tracedSolve, _, _ := run.latencies()
	out.set("trace_overhead_frac", "ratio", quantile(tracedSolve, 0.5)/quantile(plainSolve, 0.5)-1)
	out.detail["replayed_ops"] = len(tr.replays)
	out.detail["replay_mismatches"] = mismatches
}
