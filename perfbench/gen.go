package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"tcqr"
	"tcqr/internal/matgen"
	"tcqr/internal/wirefmt"
)

// Every input is a pure function of (workload, seed, op index): the same
// seed replays the same request bytes and the same arrival schedule, and the
// server only ever sees these generated bodies.

// cond is the condition number of every generated matrix (geometric
// singular value spectrum).
const cond = 1e3

// updateRows is the height of every appended or removed row block.
const updateRows = 16

// Independent random streams derived from one workload seed.
const (
	streamBase = iota + 1
	streamColdOp
	streamColdBlock
	streamHotKey
	streamHotRHS
	streamHotBlock
	streamHotSchedule
	streamHotSaturation
)

// mixSeed derives the seed of one stream element with a splitmix64 finalizer,
// so neighbouring (seed, stream, index) triples give unrelated streams.
func mixSeed(seed int64, stream, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(index)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & (1<<63 - 1))
}

// baseMatrix is the one Haar-generated m×n matrix of a workload; every other
// matrix is derived from it in O(mn).
func baseMatrix(seed int64, m, n int) *tcqr.Matrix {
	rng := rand.New(rand.NewSource(mixSeed(seed, streamBase, 0)))
	return matgen.WithCond(rng, m, n, cond, matgen.Geometric)
}

// derive writes into dst (m×n, tight) the base matrix with its columns
// permuted and its rows sign-flipped by rng. Both operations are orthogonal
// transformations, so every derived matrix keeps the base's singular values
// (and its Frobenius norm) while hashing to a distinct cache key.
func derive(dst, base *tcqr.Matrix, rng *rand.Rand, perm []int, signs []float64) {
	m, n := base.Rows, base.Cols
	for j := range perm {
		perm[j] = j
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for i := range signs {
		signs[i] = 1
		if rng.Int63()&1 == 1 {
			signs[i] = -1
		}
	}
	for j := 0; j < n; j++ {
		src := base.Col(perm[j])
		col := dst.Data[j*m : (j+1)*m]
		for i, v := range src {
			col[i] = signs[i] * v
		}
	}
}

// gaussian fills x with N(0, 1) draws.
func gaussian(rng *rand.Rand, x []float64) {
	for i := range x {
		x[i] = rng.NormFloat64()
	}
}

// rowBlock writes into dst (k×n) k new rows drawn from a's row distribution:
// row r = gᵀ·a / √m with g ~ N(0, I_m). For a = U·Σ·Vᵀ with Haar U, the rows
// of a are (to first order) exactly such draws.
func rowBlock(dst, a *tcqr.Matrix, rng *rand.Rand, g []float64) {
	m, n := a.Rows, a.Cols
	inv := 1 / math.Sqrt(float64(m))
	for r := 0; r < dst.Rows; r++ {
		gaussian(rng, g[:m])
		for j := 0; j < n; j++ {
			var s float64
			for i, v := range a.Col(j) {
				s += g[i] * v
			}
			dst.Data[r+j*dst.Rows] = s * inv
		}
	}
}

// coldGen produces the cold workloads' ops into reused buffers, so a run
// allocates nothing per op on the client side of the timed loop.
type coldGen struct {
	seed  int64
	base  *tcqr.Matrix
	normF float64
	rng   *rand.Rand
	perm  []int
	signs []float64
	g     []float64

	// The current op: its matrix, right-hand side, request frame, and
	// (after block) the append block of the update that follows it.
	a     *tcqr.Matrix
	b     []float64
	frame []byte
	blk   *tcqr.Matrix
}

func newColdGen(seed int64, m, n int) *coldGen {
	base := baseMatrix(seed, m, n)
	return &coldGen{
		seed:  seed,
		base:  base,
		normF: frobenius(base),
		rng:   rand.New(rand.NewSource(1)),
		perm:  make([]int, n),
		signs: make([]float64, m),
		g:     make([]float64, m),
		a:     tcqr.NewMatrix(m, n),
		b:     make([]float64, m),
		blk:   tcqr.NewMatrix(updateRows, n),
	}
}

// solveMeta is the JSON metadata section of every cold solve frame: the
// defaults (fp16 engine, CAQR panel, CGLS refinement).
var solveMeta = []byte("{}")

// op builds cold op i: matrix, right-hand side and the binary /v1/solve
// frame [meta, A, b].
func (g *coldGen) op(i int) error {
	g.rng.Seed(mixSeed(g.seed, streamColdOp, i))
	derive(g.a, g.base, g.rng, g.perm, g.signs)
	gaussian(g.rng, g.b)
	var err error
	g.frame, err = wirefmt.AppendFrame(g.frame[:0],
		wirefmt.JSONSection(solveMeta),
		wirefmt.MatrixSection(g.a.Rows, g.a.Cols, g.a.Data),
		wirefmt.VectorSection(g.b))
	return err
}

// updateFrame builds the binary /v1/update frame that follows cold op i:
// append a fresh 16-row block when appendRows, else remove the trailing 16
// rows.
func (g *coldGen) updateFrame(dst []byte, i int, key string, appendRows bool) ([]byte, error) {
	if !appendRows {
		return removeFrame(dst, key)
	}
	g.rng.Seed(mixSeed(g.seed, streamColdBlock, i))
	rowBlock(g.blk, g.a, g.rng, g.g)
	return appendFrame(dst, key, g.blk)
}

func appendFrame(dst []byte, key string, blk *tcqr.Matrix) ([]byte, error) {
	meta, err := json.Marshal(struct {
		Key string `json:"key"`
	}{key})
	if err != nil {
		return nil, err
	}
	return wirefmt.AppendFrame(dst[:0], wirefmt.JSONSection(meta),
		wirefmt.MatrixSection(blk.Rows, blk.Cols, blk.Data))
}

func removeFrame(dst []byte, key string) ([]byte, error) {
	meta, err := json.Marshal(struct {
		Key        string `json:"key"`
		RemoveRows int    `json:"remove_rows"`
	}{key, updateRows})
	if err != nil {
		return nil, err
	}
	return wirefmt.AppendFrame(dst[:0], wirefmt.JSONSection(meta))
}

// Hot-mixed shape and mix.
const (
	hotRows, hotCols = 1024, 256
	hotReadKeys      = 8
	hotWriteKeys     = 2
	hotRHSPerKey     = 16
	hotBlocksPerKey  = 8
	hotUpdateEvery   = 10   // 1 op in 10 is an update
	hotZipfS         = 1.2  // read-key skew: the hottest key takes ~43%
	hotSatClients    = 16   // in-flight solves of the saturation phase
	hotOpenFrac      = 0.7  // share of the measured time spent open-loop
	hotSatOps        = 4096 // length of the cyclic saturation op sequence
)

// opKind is what one hot-mixed op does.
type opKind uint8

const (
	opSolve opKind = iota
	opAppend
	opRemove
)

// arrival is one scheduled open-loop op.
type arrival struct {
	at   time.Duration // due time, from the start of the phase
	kind opKind
	key  int // read key (solve) or write key (update)
	idx  int // right-hand side (solve) or append block (update)
}

// hotKey is one resident factorization of the hot-mixed workload.
type hotKey struct {
	a        *tcqr.Matrix
	normF    float64
	factor   []byte         // binary /v1/factorize frame
	rhs      [][]float64    // read keys: the right-hand sides
	blockMat []*tcqr.Matrix // write keys: the append blocks
}

// hotInputs is everything the hot-mixed workload sends, built before setup.
type hotInputs struct {
	keys []hotKey // hotReadKeys read keys, then hotWriteKeys write keys
}

func newHotInputs(seed int64) *hotInputs {
	base := baseMatrix(seed, hotRows, hotCols)
	normF := frobenius(base)
	in := &hotInputs{}
	perm := make([]int, hotCols)
	signs := make([]float64, hotRows)
	g := make([]float64, hotRows)
	for k := 0; k < hotReadKeys+hotWriteKeys; k++ {
		rng := rand.New(rand.NewSource(mixSeed(seed, streamHotKey, k)))
		hk := hotKey{a: tcqr.NewMatrix(hotRows, hotCols), normF: normF}
		derive(hk.a, base, rng, perm, signs)
		hk.factor = mustFrame(wirefmt.JSONSection([]byte("{}")),
			wirefmt.MatrixSection(hotRows, hotCols, hk.a.Data))
		if k < hotReadKeys {
			rrng := rand.New(rand.NewSource(mixSeed(seed, streamHotRHS, k)))
			for j := 0; j < hotRHSPerKey; j++ {
				b := make([]float64, hotRows)
				gaussian(rrng, b)
				hk.rhs = append(hk.rhs, b)
			}
		} else {
			brng := rand.New(rand.NewSource(mixSeed(seed, streamHotBlock, k)))
			for j := 0; j < hotBlocksPerKey; j++ {
				blk := tcqr.NewMatrix(updateRows, hotCols)
				rowBlock(blk, hk.a, brng, g)
				hk.blockMat = append(hk.blockMat, blk)
			}
		}
		in.keys = append(in.keys, hk)
	}
	return in
}

func mustFrame(secs ...wirefmt.Section) []byte {
	f, err := wirefmt.AppendFrame(nil, secs...)
	if err != nil {
		panic(fmt.Sprintf("perfbench: building a frame: %v", err))
	}
	return f
}

// solveBody is the JSON /v1/solve body by key: the default wire contract.
func solveBody(key string, b []float64) ([]byte, error) {
	return json.Marshal(struct {
		Key string    `json:"key"`
		B   []float64 `json:"b"`
	}{key, b})
}

// schedule draws the open-loop arrivals of a phase of length d: Poisson
// arrivals at the workload rate; every hotUpdateEvery-th op is an update on
// the write keys in turn, alternating append and remove per key; every other
// op is a solve on a Zipf-skewed read key.
func schedule(seed int64, rate float64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(mixSeed(seed, streamHotSchedule, 0)))
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotReadKeys-1)
	var (
		out     []arrival
		t       float64
		updates int
		appends [hotWriteKeys]int
	)
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		if i%hotUpdateEvery == hotUpdateEvery-1 {
			w := updates % hotWriteKeys
			kind := opAppend
			if (updates/hotWriteKeys)%2 == 1 {
				kind = opRemove
			}
			a := arrival{at: at, kind: kind, key: hotReadKeys + w}
			if kind == opAppend {
				a.idx = appends[w] % hotBlocksPerKey
				appends[w]++
			}
			out = append(out, a)
			updates++
			continue
		}
		out = append(out, arrival{at: at, kind: opSolve, key: int(zipf.Uint64()), idx: rng.Intn(hotRHSPerKey)})
	}
}

// saturationOps is the cyclic (key, rhs) sequence the closed-loop clients
// of the saturation phase take their solves from.
func saturationOps(seed int64) []arrival {
	rng := rand.New(rand.NewSource(mixSeed(seed, streamHotSaturation, 0)))
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotReadKeys-1)
	out := make([]arrival, hotSatOps)
	for i := range out {
		out[i] = arrival{kind: opSolve, key: int(zipf.Uint64()), idx: rng.Intn(hotRHSPerKey)}
	}
	return out
}
