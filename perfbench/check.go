package main

import (
	"errors"
	"math"

	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
)

// checkFeasible verifies an integral b-matching twice over: the matching's
// own re-derivation of its cached state, and the LP feasibility check of
// its indicator vector against the instance's budgets.
func checkFeasible(g *graph.Graph, b graph.Budgets, m *matching.BMatching) error {
	if err := m.Validate(); err != nil {
		return err
	}
	x := make([]float64, g.M())
	for _, e := range m.Edges() {
		x[e] = 1
	}
	return frac.BMatchingProblem(g, b).CheckFeasibleTol(x, 0)
}

// digest is the part of a solve's result that must repeat bit for bit: the
// scalars themselves, and a 64-bit fold of the matched edge ids (or of x,
// for frac), so the checker need not keep whole results in memory.
type digest struct {
	feasible  bool
	size      int
	weight    float64
	dualBound float64 // the certificate, approx and frac only
	fracValue float64
	body      uint64
}

func fold(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

func digestOf(feasible bool, size int, weight, dualBound, fracValue float64, edges []int32, x []float64) digest {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		h = fold(h, uint64(e))
	}
	h = fold(h, math.MaxUint64) // separates the edge ids from x
	for _, v := range x {
		h = fold(h, math.Float64bits(v))
	}
	return digest{feasible, size, weight, dualBound, fracValue, h}
}

// matchingDigest is the digest of an integral result without certificate.
func matchingDigest(m *matching.BMatching) digest {
	return digestOf(true, m.Size(), m.Weight(), 0, 0, m.Edges(), nil)
}

var (
	errRepeat = errors.New("result differs from the op's first run at this seed")
	errReplay = errors.New("traced replay differs from engine.Solve's result")
)
