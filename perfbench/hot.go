package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/serve"
	"tcqr/internal/tcsim"
	"tcqr/internal/wirefmt"
)

// hotRate is the open-loop arrival rate of hot-mixed: about a sixth of the
// 220-300 solves/s the saturation phase measured when the benchmark was
// defined (2-core x86-64 host whose CPU time other tenants share). Queueing
// amplifies that host's run-to-run noise of 10-20% in service time: at half
// the saturation rate into 40-60% swings of the latency percentiles, at a
// third still into a p90 spread of 0.30 over ten runs; at a sixth p90 moves
// with the service time. The rate is fixed, not derived from the run, so a
// slower server meets the same offered load.
const hotRate = 40.0

// lateBoundMS bounds the open-loop generator's p90 lateness. A pass whose
// generator ran later than this is invalid: the stall was the client's, and
// its latencies would read as a server regression. The generator shares the
// server's processors, so it can wait out one 10 ms scheduler preemption
// quantum; twice that is a stall.
const lateBoundMS = 20.0

// hotOp is one hot-mixed op: what was sent and what came back.
type hotOp struct {
	kind     opKind
	key, idx int
	at       time.Duration // open loop: scheduled send, from the phase start
	late     float64       // ms the send ran behind its schedule
	lat      float64       // ms from the scheduled send to the response
	done     time.Time
	code     int
	st       stages
	body     []byte
	reqBytes int
}

// hotServer is one set-up server: its resident keys and the request
// bodies that address them.
type hotServer struct {
	s      *serve.Server
	h      http.Handler
	keys   []string
	bodies [][][]byte // read key → rhs index → JSON solve body
	blocks [][][]byte // write key → block index → binary append frame
	remove [][]byte   // write key → binary remove frame
}

// hotSetup builds a server and factorizes every resident key on it (binary
// /v1/factorize frames), then warms each read key with one solve. It
// returns the set-up wall time, serve.New to ready for the first timed op;
// the request bodies that need the returned keys are built after the clock
// stops.
func hotSetup(in *hotInputs, backend serve.Backend) (*hotServer, time.Duration, error) {
	t0 := time.Now()
	hs := &hotServer{s: newServer(backend)}
	hs.h = hs.s.Handler()
	for k := range in.keys {
		rec, err := post(hs.h, "/v1/factorize", in.keys[k].factor, true)
		if err != nil {
			hs.s.Close()
			return nil, 0, err
		}
		var kr keyResp
		if rec.code == http.StatusOK {
			_, err = decodeFrameResp(rec.body.Bytes(), &kr)
		}
		if rec.code != http.StatusOK || err != nil || kr.Key == "" {
			hs.s.Close()
			return nil, 0, fmt.Errorf("set-up factorize of key %d: status %d: %v %s", k, rec.code, err, rec.body.String())
		}
		hs.keys = append(hs.keys, kr.Key)
	}
	t1 := time.Now()
	if err := hs.buildBodies(in); err != nil {
		hs.s.Close()
		return nil, 0, err
	}
	t2 := time.Now()
	for k := 0; k < hotReadKeys; k++ {
		rec, err := post(hs.h, "/v1/solve", hs.bodies[k][0], false)
		if err != nil || rec.code != http.StatusOK {
			hs.s.Close()
			return nil, 0, fmt.Errorf("set-up warm-up solve on key %d failed: %v", k, err)
		}
	}
	return hs, t1.Sub(t0) + time.Since(t2), nil
}

// buildBodies renders the JSON solve bodies and binary update frames for
// the keys the server returned.
func (hs *hotServer) buildBodies(in *hotInputs) error {
	for k, hk := range in.keys {
		if k < hotReadKeys {
			var bodies [][]byte
			for _, b := range hk.rhs {
				body, err := solveBody(hs.keys[k], b)
				if err != nil {
					return err
				}
				bodies = append(bodies, body)
			}
			hs.bodies = append(hs.bodies, bodies)
			continue
		}
		var frames [][]byte
		for _, blk := range hk.blockMat {
			f, err := appendFrame(nil, hs.keys[k], blk)
			if err != nil {
				return err
			}
			frames = append(frames, f)
		}
		hs.blocks = append(hs.blocks, frames)
		f, err := removeFrame(nil, hs.keys[k])
		if err != nil {
			return err
		}
		hs.remove = append(hs.remove, f)
	}
	return nil
}

// request returns the endpoint, body and encoding of one op.
func (hs *hotServer) request(a arrival) (string, []byte, bool) {
	switch a.kind {
	case opAppend:
		return "/v1/update", hs.blocks[a.key-hotReadKeys][a.idx], true
	case opRemove:
		return "/v1/update", hs.remove[a.key-hotReadKeys], true
	}
	return "/v1/solve", hs.bodies[a.key][a.idx], false
}

// do sends one op and records its response; the latency runs from due.
func (hs *hotServer) do(a arrival, due time.Time, op *hotOp) {
	path, body, binary := hs.request(a)
	op.kind, op.key, op.idx, op.reqBytes = a.kind, a.key, a.idx, len(body)
	rec, err := post(hs.h, path, body, binary)
	op.done = time.Now()
	op.lat = ms(op.done.Sub(due))
	if err != nil {
		return
	}
	op.code = rec.code
	op.st = parseServerTiming(rec.hdr.Get("Server-Timing"))
	op.body = rec.body.Bytes()
}

// hotRun is one measured pass: the open-loop phase, then the saturation
// phase.
type hotRun struct {
	open, sat  []hotOp
	openD      time.Duration
	satStart   time.Time
	satElapsed time.Duration
	allocMB    float64
	batchMean  float64 // solves per coalesced flush, saturation phase
	gemm       *gemmCounter
}

// runHotPass runs both phases on hs for a total of d.
func runHotPass(hs *hotServer, seed int64, d time.Duration, traced bool) (*hotRun, error) {
	openD := time.Duration(float64(d) * hotOpenFrac)
	sched := schedule(seed, hotRate, openD)
	satOps := saturationOps(seed)
	run := &hotRun{open: make([]hotOp, len(sched)), openD: openD}
	if traced {
		run.gemm = newGemmCounter()
		unregister := tcsim.RegisterGemmObserver(run.gemm.observe)
		defer unregister()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Open loop: every op is sent at its scheduled time whether or not
	// earlier ones have finished.
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		run.open[i].at, run.open[i].late = a.at, ms(time.Since(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			hs.do(a, due, &run.open[i])
		}(i, a, due)
	}
	wg.Wait()

	// Saturation: hotSatClients closed-loop clients, each sending its next
	// solve as soon as the previous one returns.
	stats0 := hs.s.CoalescerStats()
	satStart := time.Now()
	deadline := satStart.Add(d - openD)
	var next atomic.Int64
	per := make([][]hotOp, hotSatClients)
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				a := satOps[int(next.Add(1)-1)%len(satOps)]
				var op hotOp
				hs.do(a, time.Now(), &op)
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	run.satStart, run.satElapsed = satStart, time.Since(satStart)
	for _, ops := range per {
		run.sat = append(run.sat, ops...)
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	run.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	run.batchMean = batchMean(hs.s, stats0)
	if late := quantile(run.lateness(), 0.9); late > lateBoundMS {
		return nil, fmt.Errorf("run invalid: open-loop generator p90 lateness %.2f ms exceeds the %.0f ms bound", late, lateBoundMS)
	}
	return run, nil
}

// ops returns the open-loop ops followed by the saturation ops.
func (run *hotRun) ops() []hotOp {
	return append(append([]hotOp(nil), run.open...), run.sat...)
}

func (run *hotRun) lateness() []float64 {
	out := make([]float64, len(run.open))
	for i, op := range run.open {
		out[i] = op.late
	}
	return out
}

// hotVerdict is the accuracy check of one pass; ok and meta are indexed
// like run.ops().
type hotVerdict struct {
	ok     []bool
	meta   []solveMetaResp // decoded solve responses (zero for updates)
	optMax float64
	// stateErr describes a write key whose final epoch does not hold the
	// rows its successful updates imply ("" when all agree).
	stateErr string
}

// verify checks every response of a pass: solves must return an x that
// passes the optimality check against the benchmark's own A and b; updates
// must publish the next epoch with a consistent shape. It also checks that
// each write key's final epoch holds exactly the rows its successful
// updates imply.
func verify(in *hotInputs, hs *hotServer, run *hotRun, epochs0 []uint64, rows0 []int) hotVerdict {
	var v hotVerdict
	var chk checker
	var appends, removes [hotWriteKeys]int
	check := func(op hotOp, sr *solveMetaResp) bool {
		if op.code != http.StatusOK {
			return false
		}
		if op.kind != opSolve {
			var ur keyResp
			if _, err := decodeFrameResp(op.body, &ur); err != nil || ur.Cols != hotCols {
				return false
			}
			if op.kind == opAppend {
				appends[op.key-hotReadKeys]++
			} else {
				removes[op.key-hotReadKeys]++
			}
			return true
		}
		if err := json.Unmarshal(op.body, sr); err != nil {
			return false
		}
		hk := in.keys[op.key]
		opt, ok := chk.accept(hk.a, hk.normF, hk.rhs[op.idx], sr.X)
		if ok && opt > v.optMax {
			v.optMax = opt
		}
		return ok
	}
	ops := run.ops()
	v.ok = make([]bool, len(ops))
	v.meta = make([]solveMetaResp, len(ops))
	for i, op := range ops {
		v.ok[i] = check(op, &v.meta[i])
	}
	epochs, rows, err := writeState(hs)
	if err != nil {
		v.stateErr = err.Error()
		return v
	}
	for w := range epochs {
		n := appends[w] + removes[w]
		if want := rows0[w] + updateRows*(appends[w]-removes[w]); rows[w] != want || epochs[w] != epochs0[w]+uint64(n) {
			v.stateErr = fmt.Sprintf("write key %d: epoch %d with %d rows after %d appends and %d removes from epoch %d",
				w, epochs[w], rows[w], appends[w], removes[w], epochs0[w])
		}
	}
	return v
}

// writeState snapshots each write key's epoch and row count.
func writeState(hs *hotServer) ([]uint64, []int, error) {
	var epochs []uint64
	var rows []int
	for w := 0; w < hotWriteKeys; w++ {
		e, ok := hs.s.Cache().Get(hs.keys[hotReadKeys+w])
		if !ok {
			return nil, nil, fmt.Errorf("write key %d is not cached", w)
		}
		epochs = append(epochs, e.Epoch)
		rows = append(rows, e.A.Rows)
		hs.s.Cache().Release(e)
	}
	return epochs, rows, nil
}

// measureHot runs one verified pass.
func measureHot(in *hotInputs, hs *hotServer, seed int64, d time.Duration, traced bool) (*hotRun, hotVerdict, error) {
	epochs0, rows0, err := writeState(hs)
	if err != nil {
		return nil, hotVerdict{}, err
	}
	run, err := runHotPass(hs, seed, d, traced)
	if err != nil {
		return nil, hotVerdict{}, err
	}
	return run, verify(in, hs, run, epochs0, rows0), nil
}

func runHot(seed int64, seconds float64, traced bool) (*outcome, error) {
	in := newHotInputs(seed)
	out := newOutcome()
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		var setups []float64
		var hs *hotServer
		for r := 0; r < setupReps; r++ {
			if hs != nil {
				hs.s.Close()
			}
			var sd time.Duration
			var err error
			if hs, sd, err = hotSetup(in, nil); err != nil {
				return nil, err
			}
			setups = append(setups, sd.Seconds())
		}
		defer hs.s.Close()
		run, v, err := measureHot(in, hs, seed, d, false)
		if err != nil {
			return nil, err
		}
		hotEndToEnd(out, run, v, quantile(setups, 0.5))
		return out, nil
	}
	hs, _, err := hotSetup(in, nil)
	if err != nil {
		return nil, err
	}
	plain, plainV, err := measureHot(in, hs, seed, d/2, false)
	hs.s.Close()
	if err != nil {
		return nil, err
	}
	tb := &timingBackend{}
	hs, _, err = hotSetup(in, tb)
	if err != nil {
		return nil, err
	}
	defer hs.s.Close()
	setupFactorize := tb.factorize
	tb.reset()
	run, v, err := measureHot(in, hs, seed, d/2, true)
	if err != nil {
		return nil, err
	}
	for i, op := range plain.ops() {
		out.count(plainV.ok[i], op.code)
	}
	countState(out, plainV)
	hotLayers(out, in, hs, run, plain, v, tb)
	// The timed phases factorize nothing: report the set-up's
	// factorizations and the cache keys of the resident matrices.
	out.set("tcqr.factorize_ms_p50", "ms", quantile(setupFactorize, 0.5))
	var keyMS []float64
	for _, hk := range in.keys {
		t0 := time.Now()
		_ = serve.CacheKey(hk.a, tcqr.Config{})
		keyMS = append(keyMS, ms(time.Since(t0)))
	}
	out.set("serve.cache_key_ms", "ms", quantile(keyMS, 0.5))
	return out, nil
}

// openLatencies splits the open-loop phase's latencies by op kind.
func (run *hotRun) openLatencies() (solve, appends, removes []float64) {
	for _, op := range run.open {
		switch op.kind {
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

// rateChunk is the number of consecutive completions whose rate is one
// sample of medianRate: about a second of saturation-phase work.
const rateChunk = 250

// medianRate is the saturation phase's throughput: the median over
// consecutive chunks of rateChunk completions of each chunk's completion
// rate, so a host stall of a second or two moves it less than it moves the
// phase's mean. With fewer than two chunks it is the phase's mean rate.
func medianRate(done []time.Time, start time.Time, elapsed time.Duration) float64 {
	if len(done) < 2*rateChunk {
		return float64(len(done)) / elapsed.Seconds()
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	prev := start
	for k := rateChunk - 1; k < len(done); k += rateChunk {
		rates = append(rates, rateChunk/done[k].Sub(prev).Seconds())
		prev = done[k]
	}
	return quantile(rates, 0.5)
}

// countState records a write-key state mismatch as a wrong answer.
func countState(out *outcome, v hotVerdict) {
	if v.stateErr != "" {
		out.wrong++
		out.detail["write_state"] = v.stateErr
	}
}

// hotSegments is the number of equal time segments the open-loop phase is
// cut into for its latency percentiles.
const hotSegments = 6

// segmentLatencies returns, for each of hotSegments equal segments of the
// open-loop phase (by scheduled send time), the latencies of its solves.
func (run *hotRun) segmentLatencies() [][]float64 {
	segs := make([][]float64, hotSegments)
	for _, op := range run.open {
		if op.kind != opSolve {
			continue
		}
		k := min(int(int64(op.at)*hotSegments/int64(run.openD)), hotSegments-1)
		segs[k] = append(segs[k], op.lat)
	}
	return segs
}

func hotEndToEnd(out *outcome, run *hotRun, v hotVerdict, setup float64) {
	countState(out, v)
	solve, appends, removes := run.openLatencies()
	// The latency percentiles are medians over the open-loop segments of
	// each segment's percentile: a host stall of a few seconds moves one or
	// two segments, not the result. Each segment keeps at least ten samples
	// beyond its p90 (the report records the smallest count).
	var p50s, p90s []float64
	minBeyond := len(solve)
	for _, seg := range run.segmentLatencies() {
		p90 := quantile(seg, 0.9)
		p50s = append(p50s, quantile(seg, 0.5))
		p90s = append(p90s, p90)
		minBeyond = min(minBeyond, beyond(seg, p90))
	}
	var done []time.Time
	for i, op := range run.ops() {
		out.count(v.ok[i], op.code)
		if v.ok[i] && i >= len(run.open) {
			done = append(done, op.done)
		}
	}
	out.set("setup_s", "s", setup)
	out.set("latency_p50_ms", "ms", quantile(p50s, 0.5))
	out.set("latency_p90_ms", "ms", quantile(p90s, 0.5))
	out.set("update_p50_ms", "ms", updateP50(appends, removes))
	out.set("throughput_ops_s", "1/s", medianRate(done, run.satStart, run.satElapsed))
	out.set("optimality_max", "ratio", v.optMax)
	out.set("alloc_mb_per_op", "MB", run.allocMB/float64(len(run.open)+len(run.sat)))
	out.detail["latency_samples"] = len(solve)
	out.detail["latency_segments"] = hotSegments
	out.detail["latency_min_beyond_p90_per_segment"] = minBeyond
	out.detail["update_samples"] = map[string]int{"append": len(appends), "remove": len(removes)}
	out.detail["saturation_ops"] = len(run.sat)
	out.detail["saturation_batch_mean"] = run.batchMean
	out.detail["gen_late_ms_p90"] = quantile(run.lateness(), 0.9)
	out.detail["failed_frac"] = frac(float64(out.failed), float64(out.attempted))
}

func hotLayers(out *outcome, in *hotInputs, hs *hotServer, run, plain *hotRun, v hotVerdict, tb *timingBackend) {
	countState(out, v)
	all := run.ops()
	var refused, hits, solves, iters, lsqr, panel float64
	var queue, encode, reqMB, perIter, jsonDec, frameDec []float64
	var latSum, layerSum float64
	scratch := make([]wirefmt.Section, 0, 4)
	decoded := map[arrival]float64{}
	for i, op := range all {
		out.count(v.ok[i], op.code)
		if op.code != http.StatusOK {
			refused++
		}
		reqMB = append(reqMB, float64(op.reqBytes)/1e6)
		// Each distinct body is decoded once; its time stands for every op
		// that sent it.
		req := arrival{kind: op.kind, key: op.key, idx: op.idx}
		dec, seen := decoded[req]
		if !seen {
			_, body, _ := hs.request(req)
			if op.kind == opSolve {
				dec = timeJSONDecode(body)
			} else {
				t0 := time.Now()
				_, _ = wirefmt.Decode(body, scratch)
				dec = ms(time.Since(t0))
			}
			decoded[req] = dec
		}
		if op.kind == opSolve {
			jsonDec = append(jsonDec, dec)
		} else {
			frameDec = append(frameDec, dec)
		}
		if i < len(run.open) {
			latSum += op.lat
			layerSum += op.late + op.st.queue + op.st.solve + op.st.update + op.st.encode + dec
		}
		if op.kind != opSolve || op.code != http.StatusOK {
			continue
		}
		if i < len(run.open) {
			// Stage times of the open-loop phase, whose latencies they split.
			queue = append(queue, op.st.queue)
			encode = append(encode, op.st.encode)
		}
		sm := v.meta[i]
		solves++
		if sm.Cached {
			hits++
		}
		iters += float64(sm.Iterations)
		l, p := countHazards(sm.Hazards)
		lsqr += float64(l)
		panel += float64(p)
		if sm.Iterations > 0 {
			perIter = append(perIter, op.st.solve/float64(sm.Iterations))
		}
	}
	out.set("tcqr.solve_ms_p50", "ms", quantile(tb.solve, 0.5))
	out.set("tcqr.solve_multi_ms_p50", "ms", quantile(tb.solveMulti, 0.5))
	out.set("tcqr.solve_multi_rhs_mean", "count", mean(tb.multiRHS))
	out.set("tcqr.update_append_ms_p50", "ms", quantile(tb.appendT, 0.5))
	out.set("tcqr.update_remove_ms_p50", "ms", quantile(tb.removeT, 0.5))
	out.set("serve.queue_wait_ms_p50", "ms", quantile(queue, 0.5))
	out.set("serve.cache_hit_frac", "ratio", frac(hits, solves))
	out.set("serve.coalesced_batch_mean", "count", run.batchMean)
	out.set("serve.refused_frac", "ratio", frac(refused, float64(len(all))))
	out.set("serve.encode_ms_p50", "ms", quantile(encode, 0.5))
	out.set("wirefmt.decode_ms_per_op", "ms", mean(frameDec))
	out.set("wire.request_mb_per_op", "MB", mean(reqMB))
	out.set("wire.json_decode_ms_per_op", "ms", mean(jsonDec))
	out.set("lls.cgls_iters_mean", "count", frac(iters, solves))
	out.set("lls.ms_per_iter", "ms", quantile(perIter, 0.5))
	out.set("lls.lsqr_fallbacks", "count", lsqr)
	out.set("blas.gemv64_gflops", "GFLOP/s", gemvGflops(in.keys[0].a, 200*time.Millisecond))
	setGemmCounts(out, run.gemm, float64(len(all)))
	out.set("gram.escalations", "count", panel)
	out.na("tcsim.gemm_ms_per_op", "tcsim.gemm_gflops", "gram.panel_calls_per_op", "gram.panel_ms_per_op",
		"rgs.self_ms_per_op", "tsqr.blocks_ms", "tsqr.reduce_ms", "tsqr.recover_ms", "replay.mismatches")
	out.set("unexplained_frac", "ratio", frac(latSum-layerSum, latSum))
	plainSolve, _, _ := plain.openLatencies()
	tracedSolve, _, _ := run.openLatencies()
	out.set("trace_overhead_frac", "ratio", quantile(tracedSolve, 0.5)/quantile(plainSolve, 0.5)-1)
	out.set("gen.late_ms_p90", "ms", quantile(run.lateness(), 0.9))
}

// timeJSONDecode times encoding/json decoding one solve body the way the
// server does: a strict decoder into the request's shape.
func timeJSONDecode(body []byte) float64 {
	var req struct {
		Key        string          `json:"key"`
		Matrix     json.RawMessage `json:"matrix"`
		Config     json.RawMessage `json:"config"`
		B          []float64       `json:"b"`
		Options    json.RawMessage `json:"options"`
		DeadlineMS int64           `json:"deadline_ms"`
	}
	t0 := time.Now()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	_ = dec.Decode(&req)
	return ms(time.Since(t0))
}
