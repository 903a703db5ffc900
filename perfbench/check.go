package main

import (
	"fmt"
	"math"

	"tcqr"
)

// optimalityLimit is the fixed accuracy threshold: a returned x fails the
// check when its normal-equations optimality ‖Aᵀ(b−Ax)‖₂ / (‖A‖_F·‖b−Ax‖₂)
// exceeds it. Double-precision solutions of these κ=1e3 problems land near
// 1e-16; a single-precision-only answer (no refinement) lands near 1e-7.
const optimalityLimit = 1e-12

// checker recomputes the optimality of a returned x in float64 from the
// benchmark's own A and b, with reused scratch so checks allocate nothing.
type checker struct {
	r, g []float64
}

func frobenius(a *tcqr.Matrix) float64 {
	var s float64
	for j := 0; j < a.Cols; j++ {
		for _, v := range a.Col(j) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// optimality returns ‖Aᵀ(b−Ax)‖₂ / (‖A‖_F·‖b−Ax‖₂); normF is ‖A‖_F.
func (c *checker) optimality(a *tcqr.Matrix, normF float64, b, x []float64) (float64, error) {
	m, n := a.Rows, a.Cols
	if len(x) != n {
		return 0, fmt.Errorf("x has %d entries; want %d", len(x), n)
	}
	if len(b) != m {
		return 0, fmt.Errorf("b has %d entries; want %d", len(b), m)
	}
	if cap(c.r) < m {
		c.r = make([]float64, m)
	}
	if cap(c.g) < n {
		c.g = make([]float64, n)
	}
	r, g := c.r[:m], c.g[:n]
	copy(r, b)
	for j := 0; j < n; j++ {
		xj := x[j]
		if math.IsNaN(xj) || math.IsInf(xj, 0) {
			return 0, fmt.Errorf("x[%d] = %v", j, xj)
		}
		for i, v := range a.Col(j) {
			r[i] -= v * xj
		}
	}
	var rr float64
	for _, v := range r {
		rr += v * v
	}
	var gg float64
	for j := 0; j < n; j++ {
		var s float64
		for i, v := range a.Col(j) {
			s += v * r[i]
		}
		g[j] = s
		gg += s * s
	}
	den := normF * math.Sqrt(rr)
	if den == 0 {
		return 0, fmt.Errorf("zero residual or zero matrix")
	}
	return math.Sqrt(gg) / den, nil
}

// accept reports whether x passes the accuracy check, with the optimality
// it measured (0 when x was malformed).
func (c *checker) accept(a *tcqr.Matrix, normF float64, b, x []float64) (float64, bool) {
	opt, err := c.optimality(a, normF, b, x)
	return opt, err == nil && opt <= optimalityLimit
}
