package main

// The bulk workload: the paper's MPC pipeline (Theorem 3.1) on one large
// power-law instance in the Δ ≫ d̄ regime, one closed-loop caller. Each op
// ingests the BMG1 bytes and solves with algo=approx, so graphio ingest and
// the frac/mpc/round kernels dominate; the caches, HTTP and augmentation are
// bypassed.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/round"
)

const (
	// At n = 10^5 the instance would have m < n·log2 n, where FullMPC skips
	// the MPC compression step and solves sequentially; n = 5·10^4 keeps
	// one compression step on the simulator (Δ ≈ 30000, d̄ = 40).
	bulkN    = 50_000
	bulkM    = 1_000_000
	bulkBeta = 2.1
	bulkOps  = 8 // solver seeds in the op list
	// bulkTraceMin is the op count of a short traced pass.
	bulkTraceMin = 2
)

type bulkInput struct {
	payload []byte  // the instance as BMG1 bytes
	seeds   []int64 // the op list: one approx solve per seed
}

func newBulkInput(seed int64) *bulkInput {
	r := rng.New(seed)
	g, b := graph.PowerLawSocial(bulkN, bulkM, bulkBeta, r.Split())
	in := &bulkInput{payload: graphio.AppendBinary(g, b)}
	for i := 0; i < bulkOps; i++ {
		in.seeds = append(in.seeds, r.Int63())
	}
	return in
}

func bulkSpec(seed int64) engine.Spec {
	return engine.Spec{Algo: engine.AlgoApprox, Seed: seed, Workers: nproc}
}

// bulkOp is one timed op: decode the instance, then solve it.
func bulkOp(ctx context.Context, payload []byte, seed int64) (*graph.Graph, graph.Budgets, *engine.Solved, error) {
	g, b, err := graphio.DecodeBinary(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	sol, err := engine.Solve(ctx, g, b, bulkSpec(seed))
	return g, b, sol, err
}

// checkBulk verifies one op's result: a feasible matching no larger than
// its own dual certificate.
func checkBulk(g *graph.Graph, b graph.Budgets, sol *engine.Solved) error {
	if err := checkFeasible(g, b, sol.M); err != nil {
		return err
	}
	if float64(sol.M.Size()) > sol.DualBound {
		return fmt.Errorf("|M| = %d exceeds DualBound %v", sol.M.Size(), sol.DualBound)
	}
	return nil
}

func runBulk(seed int64, seconds float64) (*outcome, error) {
	ctx := context.Background()
	var in *bulkInput
	setup, err := timeSetup(func() (time.Duration, error) {
		in = newBulkInput(seed)
		_, _, _, err := bulkOp(ctx, in.payload, in.seeds[0]) // warm-up
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	first := make([]*digest, bulkOps)
	ratio := make([]float64, bulkOps)
	lat, busy, failed := closedLoop(bulkOps, seconds, func(i int) (time.Duration, error) {
		t := time.Now()
		g, b, sol, err := bulkOp(ctx, in.payload, in.seeds[i])
		took := time.Since(t)
		if err == nil {
			err = checkBulk(g, b, sol)
		}
		if err == nil {
			// Every pass after the first must repeat the first bit for bit.
			dg := matchingDigest(sol.M)
			if first[i] == nil {
				first[i] = &dg
				ratio[i] = float64(sol.M.Size()) / sol.DualBound
			} else if dg != *first[i] {
				err = errRepeat
			}
		}
		if err != nil {
			opFailure("bulk", fmt.Sprintf("seed=%d", in.seeds[i]), err)
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
		quality:   mean(ratio), // a failed first pass contributes 0
		rssMB:     peakRSSMB(),
	}, nil
}

// bulkReplay is engine.Solve's approx path run through core.ConstApproxCtx's
// public stages (frac.FullMPCCtx, round.RoundCtx, round.GreedyFill, the
// dual bound) in the same rng.Split order; sw times each stage.
func bulkReplay(ctx context.Context, g *graph.Graph, b graph.Budgets, seed int64, sw *stopwatch) (*frac.FullResult, *matching.BMatching, float64, error) {
	params := frac.PracticalParams()
	params.Workers = nproc
	r := rng.New(seed)
	sw.start()
	p := frac.BMatchingProblem(g, b)
	full, err := p.FullMPCCtx(ctx, params, r.Split())
	if err != nil {
		return nil, nil, 0, err
	}
	sw.lap()
	rp := round.DefaultParams()
	rp.Workers = params.Workers
	m, err := round.RoundCtx(ctx, g, b, full.X, rp, r.Split())
	if err != nil {
		return nil, nil, 0, err
	}
	sw.lap()
	round.GreedyFill(m, false)
	sw.lap()
	dual := p.DualBound(full.X, 0.05)
	sw.lap()
	return full, m, dual, nil
}

// traceBulk times each stage of engine.Solve's approx path through
// bulkReplay, and asserts the replay returns exactly what engine.Solve
// returned for that seed. Each op decodes once and runs engine.Solve (the
// reference) and the replay twice on the decoded instance, untraced and
// traced, which prices the tracing.
func traceBulk(seed int64, seconds float64) (*traced, error) {
	ctx := context.Background()
	in := newBulkInput(seed)
	var decode, mbps, csr, fullMPC, roundMs, fill, residual, tracedOp, plainOp []float64
	var iters, simRounds, traffic, roundIO, machineWords []float64
	ops := bulkOps
	if seconds == 0 {
		ops = bulkTraceMin
	}
	attempted, failed := 0, 0
	start := time.Now()
	for i := 0; i < ops || time.Since(start).Seconds() < seconds; i++ {
		opSeed := in.seeds[i%bulkOps]
		attempted++

		t := time.Now()
		g, b, err := graphio.DecodeBinary(in.payload)
		dec := time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		ref, err := engine.Solve(ctx, g, b, bulkSpec(opSeed))
		engineD := time.Since(t)
		if err != nil {
			return nil, err
		}

		// Probe, outside the replayed op: CSR build over the decoded edges.
		t = time.Now()
		if _, err := graph.New(g.N, g.Edges); err != nil {
			return nil, err
		}
		csrD := time.Since(t)

		var full *frac.FullResult
		same := true
		sw, plain, tracedD, err := timedReplays(i, func(sw *stopwatch) error {
			f, m, dual, err := bulkReplay(ctx, g, b, opSeed, sw)
			full = f
			same = same && err == nil && matchingDigest(m) == matchingDigest(ref.M) && dual == ref.DualBound
			return err
		})
		if err != nil {
			return nil, err
		}
		fullD, roundD, fillD, dualD := sw.laps[0], sw.laps[1], sw.laps[2], sw.laps[3]

		err = checkBulk(g, b, ref)
		if err == nil && !same {
			err = errReplay
		}
		if err != nil {
			failed++
			opFailure("bulk trace", fmt.Sprintf("seed=%d", opSeed), err)
		}

		decode = append(decode, ms(dec))
		mbps = append(mbps, float64(len(in.payload))/1e6/dec.Seconds())
		csr = append(csr, ms(csrD))
		fullMPC = append(fullMPC, ms(fullD))
		roundMs = append(roundMs, ms(roundD))
		fill = append(fill, ms(fillD))
		residual = append(residual, ms(engineD-fullD-roundD-fillD-dualD))
		tracedOp = append(tracedOp, ms(tracedD))
		plainOp = append(plainOp, ms(plain))
		if i < bulkOps { // counts: one value per op of the list
			iters = append(iters, float64(full.Iterations))
			simRounds = append(simRounds, float64(full.TotalSimRounds))
			traffic = append(traffic, float64(full.SimStats.TotalTraffic))
			roundIO = append(roundIO, float64(full.SimStats.MaxRoundIO))
			machineWords = append(machineWords, float64(full.SimStats.MaxMachineWords))
		}
	}
	return &traced{
		attempted: attempted,
		failed:    failed,
		metrics: map[string]metric{
			"graphio.decode_ms":       {median(decode), "ms"},
			"graphio.decode_mb_per_s": {median(mbps), "MB/s"},
			"graph.csr_build_ms":      {median(csr), "ms"},
			"frac.full_mpc_ms":        {median(fullMPC), "ms"},
			"frac.iterations":         {mean(iters), "count"},
			"frac.sim_rounds":         {mean(simRounds), "count"},
			"mpc.traffic_words":       {mean(traffic), "words"},
			"mpc.max_round_io_words":  {mean(roundIO), "words"},
			"mpc.max_machine_words":   {mean(machineWords), "words"},
			"round.round_ms":          {median(roundMs), "ms"},
			"round.greedy_fill_ms":    {median(fill), "ms"},
			"engine.residual_ms":      {median(residual), "ms"},
			"trace.overhead_ratio":    {median(tracedOp) / median(plainOp), "ratio"},
		},
	}, nil
}
