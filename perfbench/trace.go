package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/rgs"
	"tcqr/internal/serve"
	"tcqr/internal/tcsim"
	"tcqr/internal/tsqr"
)

// The traced run times the calls into each layer's public functions from
// the benchmark's own code: a timing serve.Backend, a timing tcsim.Engine
// and gram.Panel for the layer replay, and a tcsim GEMM observer. Nothing
// inside the program is instrumented.

// timingBackend implements serve.Backend and serve.Updater by delegating to
// serve.LibraryBackend and recording each call's wall time in milliseconds.
type timingBackend struct {
	lib serve.LibraryBackend

	mu         sync.Mutex
	factorize  []float64
	solve      []float64
	solveMulti []float64
	multiRHS   []float64
	appendT    []float64
	removeT    []float64
	pending    float64 // backend time since the last take
}

func (t *timingBackend) record(dst *[]float64, start time.Time) {
	d := ms(time.Since(start))
	t.mu.Lock()
	*dst = append(*dst, d)
	t.pending += d
	t.mu.Unlock()
}

// reset drops every call recorded so far (the set-up's).
func (t *timingBackend) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.factorize, t.solve, t.solveMulti, t.multiRHS, t.appendT, t.removeT = nil, nil, nil, nil, nil, nil
	t.pending = 0
}

// take returns the backend time recorded since its last call (meaningful
// for a single closed-loop client, whose calls cannot interleave).
func (t *timingBackend) take() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.pending
	t.pending = 0
	return d
}

func (t *timingBackend) Factorize(a *tcqr.Matrix32, cfg tcqr.Config) (*tcqr.Factorization, error) {
	defer t.record(&t.factorize, time.Now())
	return t.lib.Factorize(a, cfg)
}

func (t *timingBackend) SolveWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b []float64, opts tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error) {
	defer t.record(&t.solve, time.Now())
	return t.lib.SolveWithFactor(f, a, b, opts)
}

func (t *timingBackend) SolveMultiWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b *tcqr.Matrix, opts tcqr.SolveOptions) (*tcqr.MultiResult, error) {
	t.mu.Lock()
	t.multiRHS = append(t.multiRHS, float64(b.Cols))
	t.mu.Unlock()
	defer t.record(&t.solveMulti, time.Now())
	return t.lib.SolveMultiWithFactor(f, a, b, opts)
}

func (t *timingBackend) LowRank(a *tcqr.Matrix32, rank int, cfg tcqr.Config) (*tcqr.LowRankApprox, error) {
	return t.lib.LowRank(a, rank, cfg)
}

func (t *timingBackend) UpdateAppendRows(f *tcqr.Factorization, v *tcqr.Matrix32, cfg tcqr.Config) (*tcqr.Factorization, error) {
	defer t.record(&t.appendT, time.Now())
	return t.lib.UpdateAppendRows(f, v, cfg)
}

func (t *timingBackend) UpdateRemoveRows(f *tcqr.Factorization, k int, cfg tcqr.Config) (*tcqr.Factorization, error) {
	defer t.record(&t.removeT, time.Now())
	return t.lib.UpdateRemoveRows(f, k, cfg)
}

// gemmCounter is a tcsim GEMM observer counting calls and flops per engine
// name. It ignores calls while paused (the replay re-runs the same GEMMs).
type gemmCounter struct {
	paused atomic.Bool
	mu     sync.Mutex
	calls  map[string]int64
	flops  map[string]float64
}

func newGemmCounter() *gemmCounter {
	return &gemmCounter{calls: map[string]int64{}, flops: map[string]float64{}}
}

func (g *gemmCounter) observe(engine string, m, n, k int) {
	if g.paused.Load() {
		return
	}
	g.mu.Lock()
	g.calls[engine]++
	g.flops[engine] += 2 * float64(m) * float64(n) * float64(k)
	g.mu.Unlock()
}

// timingEngine wraps the engine the library builds for a config and times
// every GEMM it runs.
type timingEngine struct {
	inner tcsim.Engine
	calls int
	flops float64
	d     time.Duration
}

func (e *timingEngine) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	t0 := time.Now()
	e.inner.Gemm(tA, tB, alpha, a, b, beta, c)
	e.d += time.Since(t0)
	e.calls++
	e.flops += 2 * float64(c.Rows) * float64(c.Cols) * float64(kDim(tA, a))
}

func (e *timingEngine) Name() string { return e.inner.Name() }

func kDim(tA blas.Transpose, a *dense.M32) int {
	if tA == blas.Trans {
		return a.Rows
	}
	return a.Cols
}

// timingPanel wraps a gram.Panel and times every panel factorization. The
// replay runs it on one goroutine, so its times add up.
type timingPanel struct {
	inner gram.Panel
	calls int
	d     time.Duration
}

func (p *timingPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	t0 := time.Now()
	q, r, err = p.inner.Factor(a)
	p.d += time.Since(t0)
	p.calls++
	return q, r, err
}

func (p *timingPanel) Name() string { return p.inner.Name() }

// replayResult is one cold op's layer replay.
type replayResult struct {
	total, gemm, panel float64 // ms
	gemmCalls          int
	gemmFlops          float64
	panelCalls         int
	bitExact           bool
}

// replay re-factors a through the path the served factorization f took,
// with timing wrappers around the engine and the panel the library builds
// for the default config (fp16 TensorCore tracking specials, fp32 CAQR
// panel, fail policy), and checks the factors against f bit for bit. The
// TSQR path runs with one worker: Workers is scheduling only, so the bits
// are unchanged and the panel times add up to wall time.
func replay(a *tcqr.Matrix32, f *tcqr.Factorization) replayResult {
	eng := &timingEngine{inner: &tcsim.TensorCore{TrackSpecials: true}}
	pan := &timingPanel{inner: &gram.CAQRPanel{}}
	var q, r *dense.M32
	t0 := time.Now()
	if f.TSQR != nil {
		w := a.Clone()
		scales := rgs.ScaleColumns(w)
		res, err := tsqr.Factor(w, tsqr.Options{BlockRows: f.TSQR.BlockRows, Workers: 1, Panel: pan})
		if err == nil {
			q, r = res.Q, res.R
			for j := 0; j < r.Cols; j++ {
				if scales[j] != 1 {
					blas.Scal(1/scales[j], r.Col(j)[:j+1])
				}
			}
		}
	} else {
		res, err := rgs.Factor(a, rgs.Options{Engine: eng, Panel: pan})
		if err == nil {
			q, r = res.Q, res.R
		}
	}
	out := replayResult{
		total:      ms(time.Since(t0)),
		gemm:       ms(eng.d),
		panel:      ms(pan.d),
		gemmCalls:  eng.calls,
		gemmFlops:  eng.flops,
		panelCalls: pan.calls,
	}
	out.bitExact = q != nil && sameBits(q, f.Q) && sameBits(r, f.R)
	return out
}

// sameBits reports whether two float32 matrices agree bit for bit.
func sameBits(a, b *dense.M32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float32bits(ca[i]) != math.Float32bits(cb[i]) {
				return false
			}
		}
	}
	return true
}

// gemvGflops times float64 Gemv, plain and transposed as CGLS applies A and
// Aᵀ, at a's shape for about budget, and returns the rate in GFLOP/s.
func gemvGflops(a *tcqr.Matrix, budget time.Duration) float64 {
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	var calls int
	t0 := time.Now()
	for time.Since(t0) < budget {
		// Restart from ones each pass so repeated products cannot overflow.
		for i := range x {
			x[i] = 1
		}
		blas.Gemv(blas.NoTrans, 1, a, x, 0, y)
		blas.Gemv(blas.Trans, 1, a, y, 0, x)
		calls += 2
	}
	el := time.Since(t0).Seconds()
	return 2 * float64(a.Rows) * float64(a.Cols) * float64(calls) / el / 1e9
}
