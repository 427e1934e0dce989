package main

// The augment workload: the (1+ε) algorithms (Theorems 4.1 and 5.1) through
// the bmatch facade on small bipartite instances, one closed-loop caller.
// The frac work inside is tiny; the augment and weighted solvers dominate,
// which is the ROADMAP's worst gap (max/maxw cost ~100× frac).

import (
	"context"
	"fmt"
	"math"
	"time"

	bmatch "repro"
	"repro/internal/augment"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/weighted"
)

const (
	augEps = 0.5
	augOps = 80 // op list length; each op has its own instance
	// Edge counts per algo, chosen so max and maxw ops cost about the same
	// (maxw does far more work per edge), which keeps p50 inside one cluster.
	augMaxEdges  = 600
	augMaxWEdges = 300
	// augTraceMin is the op count of a short traced pass: one of each
	// (algo, family) kind. augTraceOps is the op-list prefix a traced run
	// of augment itself cycles through: the traced op runs the facade and
	// two replays, so the whole list would take three times a run.
	augTraceMin = 4
	augTraceOps = 24
)

type augOp struct {
	g    *graph.Graph
	b    graph.Budgets
	algo engine.Algo
	seed int64
	opt  float64 // exact optimum of the op's objective
	name string
}

// objective is what the op's algorithm maximizes: size for max, weight for
// maxw.
func (op *augOp) objective(m *matching.BMatching) float64 {
	if op.algo == engine.AlgoMax {
		return float64(m.Size())
	}
	return m.Weight()
}

// newAugOps builds the op list: algos alternate max/maxw and families
// alternate AssignmentMarket/BipartiteWeighted, so every four ops cover each
// (algo, family) kind once. It also returns the time spent on the exact
// optima, which belong to the checker, not to set-up.
func newAugOps(seed int64, n int) ([]*augOp, time.Duration, error) {
	r := rng.New(seed)
	var ops []*augOp
	var ref time.Duration
	for i := 0; i < n; i++ {
		op := &augOp{algo: engine.AlgoMax, seed: r.Int63()}
		m := augMaxEdges
		if i%2 == 1 {
			op.algo, m = engine.AlgoMaxWeight, augMaxWEdges
		}
		family := "assignment"
		if (i/2)%2 == 0 {
			workers := m / 4
			op.g, op.b = graph.AssignmentMarket(workers, workers/8+1, 7, r.Split())
		} else {
			family = "bipartite"
			op.g = graph.BipartiteWeighted(m/10, m/10, m, 1, 10, r.Split())
			op.b = graph.RandomBudgets(m/5, 1, 3, r.Split())
		}
		op.name = fmt.Sprintf("%d(%s %s m=%d seed=%d)", i, op.algo, family, op.g.M(), op.seed)
		t := time.Now()
		var err error
		if op.algo == engine.AlgoMax {
			var size int
			size, err = exact.MaxBipartite(op.g, op.b)
			op.opt = float64(size)
		} else {
			op.opt, err = exact.MaxWeightBipartite(op.g, op.b)
		}
		ref += time.Since(t)
		if err != nil {
			return nil, 0, fmt.Errorf("op %s: exact OPT: %w", op.name, err)
		}
		ops = append(ops, op)
	}
	return ops, ref, nil
}

func (op *augOp) solve(ctx context.Context) (*bmatch.Report, error) {
	return bmatch.Solve(ctx, op.g, op.b, bmatch.Request{Algo: op.algo, Eps: augEps, Seed: op.seed, Workers: nproc})
}

// check verifies feasibility and the (1+ε) guarantee against exact OPT, and
// returns the op's quality.
func (op *augOp) check(m *matching.BMatching) (float64, error) {
	if err := checkFeasible(op.g, op.b, m); err != nil {
		return 0, err
	}
	obj := op.objective(m)
	if obj < op.opt/(1+augEps)-1e-9*math.Abs(op.opt) {
		return 0, fmt.Errorf("objective %v below OPT/(1+ε) = %v", obj, op.opt/(1+augEps))
	}
	return obj / op.opt, nil
}

func runAugment(seed int64, seconds float64) (*outcome, error) {
	ctx := context.Background()
	var ops []*augOp
	setup, err := timeSetup(func() (time.Duration, error) {
		var ref time.Duration
		var err error
		if ops, ref, err = newAugOps(seed, augOps); err != nil {
			return 0, err
		}
		for _, op := range ops[:4] { // warm-up: one op of each (algo, family) kind
			if _, err := op.solve(ctx); err != nil {
				return 0, err
			}
		}
		return ref, nil
	})
	if err != nil {
		return nil, err
	}
	first := make([]*digest, augOps)
	quality := make([]float64, augOps)
	lat, busy, failed := closedLoop(augOps, seconds, func(i int) (time.Duration, error) {
		op := ops[i]
		t := time.Now()
		rep, err := op.solve(ctx)
		took := time.Since(t)
		if err == nil {
			var q float64
			if q, err = op.check(rep.M); err == nil {
				// Every pass after the first must repeat the first bit for bit.
				dg := matchingDigest(rep.M)
				if first[i] == nil {
					first[i], quality[i] = &dg, q
				} else if dg != *first[i] {
					err = errRepeat
				}
			}
		}
		if err != nil {
			opFailure("augment", op.name, err)
		}
		return took, err
	})
	n := len(lat)
	return &outcome{
		setup:     setup,
		lat:       lat,
		windows:   1,
		busy:      busy,
		attempted: n,
		failed:    failed,
		quality:   mean(quality),
		rssMB:     peakRSSMB(),
	}, nil
}

// augCounts are a replayed solve's work counters: sweeps (max) or rounds
// (maxw), augmentation instances, and walks applied.
type augCounts struct{ passes, instances, walks int }

// augReplay is engine.Solve's max or maxw path run through its public
// stages in the same rng.Split order: core.ConstApproxCtx then
// augment.OnePlusEpsCtx for max; baseline.GreedyWeightedCtx (the start the
// weighted solver builds itself from an empty matching) then
// weighted.OnePlusEpsWeightedCtx for maxw. sw times the two stages. It
// returns the start matching and the result.
func augReplay(ctx context.Context, op *augOp, sw *stopwatch) (start, m *matching.BMatching, c augCounts, err error) {
	r := rng.New(op.seed)
	sw.start()
	if op.algo == engine.AlgoMax {
		params := frac.PracticalParams()
		params.Workers = nproc
		st, err := core.ConstApproxCtx(ctx, op.g, op.b, params, r.Split())
		if err != nil {
			return nil, nil, c, err
		}
		sw.lap()
		ap := augment.DefaultParams(augEps)
		ap.Workers = nproc
		res, err := augment.OnePlusEpsCtx(ctx, op.g, op.b, st.M, ap, r.Split())
		if err != nil {
			return nil, nil, c, err
		}
		sw.lap()
		return st.M, res.M, augCounts{res.Sweeps, res.Instances, res.WalksApplied}, nil
	}
	m0, err := baseline.GreedyWeightedCtx(ctx, op.g, op.b)
	if err != nil {
		return nil, nil, c, err
	}
	sw.lap()
	wp := weighted.DefaultParams(augEps)
	wp.Workers = nproc
	res, err := weighted.OnePlusEpsWeightedCtx(ctx, op.g, op.b, m0, wp, r.Split())
	if err != nil {
		return nil, nil, c, err
	}
	sw.lap()
	return m0, res.M, augCounts{res.Rounds, res.Instances, res.WalksApplied}, nil
}

// traceAugment times each stage of the max and maxw paths through
// augReplay, run untraced and traced, and asserts the replay returns
// exactly what the facade returned for that seed. Probes outside the
// replay time augment.BuildLayered and weighted.BuildInstance on the start
// matching for every layer count the solvers use.
func traceAugment(seed int64, seconds float64) (*traced, error) {
	ctx := context.Background()
	n := augTraceOps
	if seconds == 0 {
		n = augTraceMin
	}
	ops, _, err := newAugOps(seed, n)
	if err != nil {
		return nil, err
	}
	var coreStart, greedy, augSolve, layered, wSolve, wBuild, tracedOp, plainOp []float64
	var sweeps, augInst, augWalks, wRounds, wInst, wWalks []float64
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i < n || time.Since(start).Seconds() < seconds; i++ {
		op := ops[i%n]
		attempted++
		rep, err := op.solve(ctx)
		if err != nil {
			return nil, err
		}
		var m0 *matching.BMatching
		var c augCounts
		same := true
		sw, plain, tracedD, err := timedReplays(i, func(sw *stopwatch) error {
			st, m, cs, err := augReplay(ctx, op, sw)
			m0, c = st, cs
			same = same && err == nil && matchingDigest(m) == matchingDigest(rep.M)
			return err
		})
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if op.algo == engine.AlgoMax {
			ap := augment.DefaultParams(augEps)
			for k := 1; k <= ap.MaxK(); k++ {
				augment.BuildLayered(m0, k, rng.New(op.seed+int64(k)))
			}
			layered = append(layered, ms(time.Since(t)))
			coreStart = append(coreStart, ms(sw.laps[0]))
			augSolve = append(augSolve, ms(sw.laps[1]))
			if i < n {
				sweeps = append(sweeps, float64(c.passes))
				augInst = append(augInst, float64(c.instances))
				augWalks = append(augWalks, float64(c.walks))
			}
		} else {
			for k := 1; k <= int(math.Ceil(1/augEps))+1; k++ { // the weighted solver's default K
				weighted.BuildInstance(m0, k, rng.New(op.seed+int64(k)))
			}
			wBuild = append(wBuild, ms(time.Since(t)))
			greedy = append(greedy, ms(sw.laps[0]))
			wSolve = append(wSolve, ms(sw.laps[1]))
			if i < n {
				wRounds = append(wRounds, float64(c.passes))
				wInst = append(wInst, float64(c.instances))
				wWalks = append(wWalks, float64(c.walks))
			}
		}
		_, err = op.check(rep.M)
		if err == nil && !same {
			err = errReplay
		}
		if err != nil {
			failed++
			opFailure("augment trace", op.name, err)
		}
		tracedOp = append(tracedOp, ms(tracedD))
		plainOp = append(plainOp, ms(plain))
	}
	return &traced{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]metric{
			"core.start_ms":               {median(coreStart), "ms"},
			"baseline.greedy_ms":          {median(greedy), "ms"},
			"augment.solve_ms":            {median(augSolve), "ms"},
			"augment.build_layered_ms":    {median(layered), "ms"},
			"augment.sweeps":              {mean(sweeps), "count"},
			"augment.instances":           {mean(augInst), "count"},
			"augment.walks_applied":       {mean(augWalks), "count"},
			"augment.walks_per_instance":  {mean(augWalks) / mean(augInst), "ratio"},
			"weighted.solve_ms":           {median(wSolve), "ms"},
			"weighted.build_instance_ms":  {median(wBuild), "ms"},
			"weighted.rounds":             {mean(wRounds), "count"},
			"weighted.instances":          {mean(wInst), "count"},
			"weighted.walks_applied":      {mean(wWalks), "count"},
			"weighted.walks_per_instance": {mean(wWalks) / mean(wInst), "ratio"},
			"trace.overhead_ratio":        {median(tracedOp) / median(plainOp), "ratio"},
		},
	}, nil
}
