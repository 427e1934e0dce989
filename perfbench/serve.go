package main

// The serve workload: open-loop Poisson arrivals from loadgen.BuildSchedule
// posted to an in-process httpapi.Server over an engine.Pool on loopback.
// Instances are small and solver work per request is light, so HTTP
// handling, queueing, the instance and result caches and small-payload
// decode dominate. The traffic is the one CI's load smoke test replays
// (BENCH_LOADGEN.json), with the corpus scaled past the pool's default
// instance cache so both hits and misses persist after warm-up.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/frac"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
)

const (
	// baselinePath is the committed traffic description, relative to the
	// repository root: serve takes its corpus families and instance sizes,
	// request mix, Zipf skew and seed streams from it.
	baselinePath = "BENCH_LOADGEN.json"
	// perFamily scales the baseline's corpus (2 instances per family) to
	// 48 instances, past the pool's default 32-instance cache.
	perFamily = 16
	// serveRate is the fixed-rate phase's offered load, twice the
	// baseline's 150 rps: 7500 requests in 25 s give every one of the ten
	// windows 15 samples beyond p98, and it stays far below the ladder's
	// knee, so latency is service time rather than queueing.
	serveRate   = 300.0
	serveLimit  = 50.0 // ms: the tail_ms limit a ladder rung must meet
	rungShots   = 2000 // requests per ladder rung: 40 beyond p98
	rungTries   = 2    // attempts before a rung counts as failed
	ladderBase  = 400.0
	ladderRatio = 1.08 // one rung is 8%
	ladderRungs = 24   // rung 23 is 400·1.08^23 ≈ 2350 rps
	warmShots   = 1024 // closed-loop cache-filling warm-up requests
	// serveWindows splits the open-loop phase into windows of 750
	// requests at 25 s (15 beyond p98 in each).
	serveWindows = 10
	pollEvery    = 2 * time.Millisecond
	// jobTTL and maxJobs are the job settings the benchmark's server runs
	// with (bmatchd's -job-ttl and -max-jobs), chosen on purpose so that a
	// known defect does not decide every serve number: at bmatchd's
	// defaults (15 minutes, 1024) finished async jobs stay resident for the
	// whole TTL, no HTTP call frees them, and once 1024 are held every
	// request, sync ones included, is refused with 429. defaultJobsCheck
	// measures that defect at the defaults. 10 s of retention covers any
	// client backlog (clients fetch results as soon as jobs finish), and
	// 8192 slots hold 10 s of the top rung's async share.
	jobTTL  = 10 * time.Second
	maxJobs = 8192
	// serveTraceSeconds is the fixed-phase length of a short traced pass.
	serveTraceSeconds = 2
)

// traffic is the serve workload's corpus declaration and schedule spec.
type traffic struct {
	corpus []loadgen.FamilySpec
	spec   loadgen.Spec // Seed, Requests and Rate are set per phase
}

// loadTraffic reads BENCH_LOADGEN.json and scales it: perFamily instances
// per family, and no fault injection (every request is meant to succeed).
func loadTraffic() (*traffic, error) {
	base, err := loadgen.LoadBaseline(baselinePath)
	if err != nil {
		return nil, err
	}
	t := &traffic{spec: base.Workload}
	for _, f := range base.Corpus {
		f.Count = perFamily
		t.corpus = append(t.corpus, f)
	}
	t.spec.CorpusSize = perFamily * len(t.corpus)
	t.spec.CancelProb, t.spec.TimeoutProb = 0, 0
	return t, nil
}

// schedule is one open-loop phase: Poisson arrivals at rate over the
// corpus, with the baseline's mix, Zipf popularity and seed streams.
func (t *traffic) schedule(seed int64, requests int, rate float64) ([]loadgen.Shot, error) {
	spec := t.spec
	spec.Seed, spec.Requests, spec.Rate = seed, requests, rate
	return loadgen.BuildSchedule(spec)
}

// server is the system under test plus its client.
type server struct {
	traffic *traffic
	corpus  []loadgen.CorpusItem
	api     *httpapi.Server
	http    *http.Server
	served  chan struct{} // closed when http.Serve returns
	base    string
	client  *http.Client
	nextID  atomic.Int64

	tracing atomic.Bool
	mu      sync.Mutex
	handler map[string]time.Duration // request id → handler time, while tracing
}

func startServer(tr *traffic, corpus []loadgen.CorpusItem, cfg httpapi.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		traffic: tr,
		corpus:  corpus,
		api:     httpapi.NewServer(engine.NewPool(engine.PoolConfig{Workers: nproc}), cfg),
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		handler: map[string]time.Duration{},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
		}},
	}
	s.http = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	go func() {
		defer close(s.served)
		// Serve returns ErrServerClosed on close; any other failure shows
		// up as failed requests, which the checker counts.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// serveHTTP is the span middleware around Server.Handler(): it times every
// handler call while tracing is on and otherwise costs one atomic load.
func (s *server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.tracing.Load() {
		s.api.Handler().ServeHTTP(w, r)
		return
	}
	t := time.Now()
	s.api.Handler().ServeHTTP(w, r)
	d := time.Since(t)
	s.mu.Lock()
	s.handler[r.Header.Get("X-Perfbench-Id")] += d
	s.mu.Unlock()
}

func (s *server) close() {
	s.http.Close()
	<-s.served
	s.api.Close()
	s.client.CloseIdleConnections()
}

// reply is the part of a solve reply the checker compares.
type reply struct {
	Size      int     `json:"size"`
	Weight    float64 `json:"weight"`
	Feasible  bool    `json:"feasible"`
	ElapsedMs float64 `json:"elapsedMs"`
	Cert      *struct {
		DualBound float64 `json:"dualBound"`
		FracValue float64 `json:"fracValue"`
	} `json:"cert"`
	X     []float64 `json:"x"`
	Edges []int32   `json:"edges"`
}

func (s *server) request(ctx context.Context, method, url, id string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Perfbench-Id", id)
	return s.client.Do(req)
}

// call sends one request and decodes a JSON reply of the wanted status.
func (s *server) call(ctx context.Context, method, url, id string, body []byte, want int, out any) error {
	resp, err := s.request(ctx, method, url, id, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// do sends one shot: POST /v1/solve, or for an async shot the /v2/jobs
// lifecycle (submit, poll, fetch).
func (s *server) do(ctx context.Context, sh loadgen.Shot, id string) (*reply, error) {
	q := "?algo=" + sh.Algo + "&seed=" + strconv.FormatInt(sh.Seed, 10)
	payload := s.corpus[sh.Corpus].Payload
	rep := new(reply)
	if !sh.Async {
		return rep, s.call(ctx, http.MethodPost, "/v1/solve"+q, id, payload, http.StatusOK, rep)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := s.call(ctx, http.MethodPost, "/v2/jobs"+q, id, payload, http.StatusAccepted, &job); err != nil {
		return nil, err
	}
	for job.State != "done" {
		if job.State == "failed" || job.State == "canceled" {
			return nil, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		time.Sleep(pollEvery)
		if err := s.call(ctx, http.MethodGet, "/v2/jobs/"+job.ID, id, nil, http.StatusOK, &job); err != nil {
			return nil, err
		}
	}
	return rep, s.call(ctx, http.MethodGet, "/v2/jobs/"+job.ID+"/result", id, nil, http.StatusOK, rep)
}

// sent is one shot's outcome, timed from the shot's due time.
type sent struct {
	shot    loadgen.Shot
	id      string
	late    time.Duration // send time − due time
	lat     time.Duration // completion − due time
	client  time.Duration // completion − send time
	got     digest
	elapsed float64 // the reply's elapsedMs
	err     error
}

// runOpen replays shots open-loop: each is sent at its due time whatever
// the earlier ones are doing; at most nproc connections carry them, so a
// stall queues later shots in the client and their latency counts it.
func (s *server) runOpen(ctx context.Context, shots []loadgen.Shot) []sent {
	out := make([]sent, len(shots))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range shots {
		due := start.Add(shots[i].At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &out[i]
			o.shot, o.id = shots[i], strconv.FormatInt(s.nextID.Add(1), 10)
			t := time.Now()
			rep, err := s.do(ctx, o.shot, o.id)
			o.late, o.lat, o.client, o.err = t.Sub(due), time.Since(due), time.Since(t), err
			if err == nil {
				o.got, o.elapsed = rep.digest(), rep.ElapsedMs
			}
		}(i)
	}
	wg.Wait()
	return out
}

// runClosed sends shots back to back from nproc callers and returns each
// shot's error.
func (s *server) runClosed(ctx context.Context, shots []loadgen.Shot) []error {
	errs := make([]error, len(shots))
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(shots); i += nproc {
				_, errs[i] = s.do(ctx, shots[i], "closed")
			}
		}(c)
	}
	wg.Wait()
	return errs
}

// benchJobs is the server configuration of every timed phase (see jobTTL).
var benchJobs = httpapi.Config{JobTTL: jobTTL, MaxJobs: maxJobs}

// newServe reads the traffic, generates the corpus, starts pool and server,
// and warms them: one request of each mix cell, then warmShots closed-loop
// requests of a schedule of their own, which fill the caches to steady
// state.
func newServe(ctx context.Context, seed int64) (*server, error) {
	tr, err := loadTraffic()
	if err != nil {
		return nil, err
	}
	corpus, err := loadgen.BuildCorpus(seed, tr.corpus)
	if err != nil {
		return nil, err
	}
	s, err := startServer(tr, corpus, benchJobs)
	if err != nil {
		return nil, err
	}
	warm, err := tr.schedule(seed^0x5eed, warmShots, serveRate)
	if err == nil {
		for _, cell := range tr.spec.Mix {
			if _, err = s.do(ctx, loadgen.Shot{Algo: cell.Algo, Async: cell.Async}, "warm"); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = errors.Join(s.runClosed(ctx, warm)...)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve warm-up: %w", err)
	}
	return s, nil
}

const (
	// defaultMaxJobs is engine's default job limit, which bmatchd runs with
	// unless -max-jobs is given.
	defaultMaxJobs = 1024
	// checkAsync and checkSync are the default-settings check's request
	// counts: 64 async requests past the limit, then 64 sync ones.
	checkAsync = defaultMaxJobs + 64
	checkSync  = 64
)

// defaultJobsCheck measures the defect that benchJobs keeps out of the
// timed phases: on a fresh server with bmatchd's default job settings
// (httpapi.Config{}) it sends checkAsync async shots of the serve
// schedule, then checkSync sync ones, from nproc closed-loop callers, and
// returns how many were refused with 429. Clients fetch every finished
// job's result, so a registry that frees finished jobs refuses none; at the
// defaults every request after the 1024th async one is refused.
func defaultJobsCheck(ctx context.Context, s *server, seed int64) (int, error) {
	// The baseline's async share is 0.15, so this many shots hold
	// checkAsync async ones with room to spare.
	all, err := s.traffic.schedule(seed, 10*checkAsync, serveRate)
	if err != nil {
		return 0, err
	}
	var asyncShots, syncShots []loadgen.Shot
	for _, sh := range all {
		if sh.Async && len(asyncShots) < checkAsync {
			asyncShots = append(asyncShots, sh)
		} else if !sh.Async && len(syncShots) < checkSync {
			syncShots = append(syncShots, sh)
		}
	}
	if len(asyncShots) < checkAsync {
		return 0, fmt.Errorf("default-settings check: schedule has %d async shots, want %d", len(asyncShots), checkAsync)
	}
	d, err := startServer(s.traffic, s.corpus, httpapi.Config{})
	if err != nil {
		return 0, err
	}
	defer d.close()
	refused := 0
	for _, err := range append(d.runClosed(ctx, asyncShots), d.runClosed(ctx, syncShots)...) {
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "status 429"):
			refused++
		default:
			return 0, fmt.Errorf("default-settings check: %w", err)
		}
	}
	fmt.Printf("serve: default job settings (-job-ttl 15m -max-jobs %d): %d of %d async then %d sync requests refused with 429\n",
		defaultMaxJobs, refused, checkAsync, checkSync)
	return refused, nil
}

// cell is a distinct (instance, algo, seed) the schedule asks for.
type cell struct {
	corpus int
	algo   string
	seed   int64
}

func (r *reply) digest() digest {
	var dual, value float64
	if r.Cert != nil {
		dual, value = r.Cert.DualBound, r.Cert.FracValue
	}
	return digestOf(r.Feasible, r.Size, r.Weight, dual, value, r.Edges, r.X)
}

// checker holds digests of direct engine.Solve references, computed outside
// every timed span, and verifies replies against them.
type checker struct {
	corpus []loadgen.CorpusItem
	graphs map[int]*decoded
	refs   map[cell]digest
}

type decoded struct {
	g     *graph.Graph
	b     graph.Budgets
	bound float64 // the LP dual bound: an upper bound on every objective
}

func newChecker(corpus []loadgen.CorpusItem) *checker {
	return &checker{corpus: corpus, graphs: map[int]*decoded{}, refs: map[cell]digest{}}
}

func (c *checker) instance(i int) (*decoded, error) {
	if d, ok := c.graphs[i]; ok {
		return d, nil
	}
	g, b, err := graphio.DecodeBinary(c.corpus[i].Payload)
	if err != nil {
		return nil, err
	}
	sol, err := engine.Solve(context.Background(), g, b, engine.Spec{Algo: engine.AlgoFrac})
	if err != nil {
		return nil, err
	}
	d := &decoded{g: g, b: b, bound: sol.Frac.DualBound}
	c.graphs[i] = d
	return d, nil
}

// ref solves a cell directly, checks the result's feasibility, and returns
// the digest a correct reply must have.
func (c *checker) ref(k cell, d *decoded) (digest, error) {
	if ref, ok := c.refs[k]; ok {
		return ref, nil
	}
	sol, err := engine.Solve(context.Background(), d.g, d.b, engine.Spec{Algo: engine.Algo(k.algo), Seed: k.seed})
	if err != nil {
		return digest{}, err
	}
	var ref digest
	if sol.Frac != nil {
		err = frac.BMatchingProblem(d.g, d.b).CheckFeasibleTol(sol.Frac.X, 1e-9)
		ref = digestOf(true, 0, 0, sol.Frac.DualBound, sol.Frac.Value, nil, sol.Frac.X)
	} else {
		err = checkFeasible(d.g, d.b, sol.M)
		ref = digestOf(true, sol.M.Size(), sol.M.Weight(), sol.DualBound, sol.FracValue, sol.M.Edges(), nil)
	}
	if err != nil {
		return digest{}, fmt.Errorf("reference %+v infeasible: %w", k, err)
	}
	c.refs[k] = ref
	return ref, nil
}

// verify checks one OK reply against its reference and returns the reply's
// objective (size, or Σx for frac) over the instance's bound.
func (c *checker) verify(o *sent) (float64, error) {
	k := cell{o.shot.Corpus, o.shot.Algo, o.shot.Seed}
	d, err := c.instance(k.corpus)
	if err != nil {
		return 0, err
	}
	ref, err := c.ref(k, d)
	if err != nil {
		return 0, err
	}
	if o.got != ref {
		return 0, fmt.Errorf("reply %+v differs from engine.Solve's %+v", o.got, ref)
	}
	if o.shot.Algo == string(engine.AlgoFrac) {
		return o.got.fracValue / d.bound, nil
	}
	return float64(o.got.size) / d.bound, nil
}

// verifyAll checks every shot of a phase; it returns the number of failed
// shots (errors and wrong replies) and the quality of each distinct cell in
// first-request order, 0 for a cell with no correct reply.
func (c *checker) verifyAll(out []sent, phase string) (failed int, quality []float64) {
	at := map[cell]int{}
	for i := range out {
		o := &out[i]
		k := cell{o.shot.Corpus, o.shot.Algo, o.shot.Seed}
		j, ok := at[k]
		if !ok {
			j = len(quality)
			at[k] = j
			quality = append(quality, 0)
		}
		err := o.err
		if err == nil {
			var q float64
			if q, err = c.verify(o); err == nil {
				quality[j] = q
			}
		}
		if err != nil {
			failed++
			opFailure("serve", fmt.Sprintf("%s #%d %+v", phase, o.shot.Index, k), err)
		}
	}
	return failed, quality
}

func lats(out []sent) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = ms(o.lat)
	}
	return xs
}

// rungPasses reports whether a ladder rung met the latency limit with no
// failures and no growing backlog (its last tenth of requests also within
// the limit at the median).
func rungPasses(i int, rate float64, out []sent) bool {
	l := lats(out)
	tail, last := quantile(l, tailQ["serve"]), median(l[len(l)*9/10:])
	pass := countFailed(out) == 0 && tail <= serveLimit && last <= serveLimit
	fmt.Printf("serve: rung %d (%.1f rps): tail %.2f ms, last-tenth p50 %.2f ms, failed %d, pass %v\n",
		i, rate, tail, last, countFailed(out), pass)
	return pass
}

func runServe(seed int64, seconds float64) (*outcome, error) {
	ctx := context.Background()
	var s *server
	setup, err := timeSetup(func() (time.Duration, error) {
		if s != nil {
			s.close()
		}
		var err error
		s, err = newServe(ctx, seed)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	shots, err := s.traffic.schedule(seed, int(serveRate*seconds), serveRate)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	out := s.runOpen(ctx, shots)
	span := time.Since(t).Seconds()
	rss := peakRSSMB()
	failed, quality := newChecker(s.corpus).verifyAll(out, "fixed")
	return &outcome{
		setup:     setup,
		lat:       lats(out),
		windows:   serveWindows,
		busy:      span,
		attempted: len(out),
		failed:    failed,
		quality:   mean(quality),
		rssMB:     rss,
	}, nil
}

// ladder finds the serving capacity: a binary search over the fixed rungs
// for the highest one that passes. A rung fails only when rungTries
// attempts in a row fail, so one transient stall far below the knee cannot
// decide it; each attempt offers rungShots requests of its own schedule.
// lo = -1 (nothing passed) reports the rate just below the ladder.
func (s *server) ladder(ctx context.Context, seed int64) (float64, [][]sent, error) {
	var rungs [][]sent
	lo, hi := -1, ladderRungs
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		rate := ladderBase * math.Pow(ladderRatio, float64(mid))
		pass := false
		for try := 0; try < rungTries && !pass; try++ {
			shots, err := s.traffic.schedule(seed+int64(ladderRungs*try+mid)+1, rungShots, rate)
			if err != nil {
				return 0, nil, err
			}
			r := s.runOpen(ctx, shots)
			rungs = append(rungs, r)
			pass = rungPasses(mid, rate, r)
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ladderBase * math.Pow(ladderRatio, float64(lo)), rungs, nil
}

// traceServe runs the fixed-rate phase twice on one warmed server, first
// untraced and then with the handler middleware recording, and reads the
// engine's counters around the traced phase.
func traceServe(seed int64, seconds float64) (*traced, error) {
	ctx := context.Background()
	phase := seconds / 2
	if seconds == 0 {
		phase = serveTraceSeconds
	}
	s, err := newServe(ctx, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	n := int(serveRate * phase)
	plainShots, err := s.traffic.schedule(seed, n, serveRate)
	if err != nil {
		return nil, err
	}
	tracedShots, err := s.traffic.schedule(seed+rungTries*ladderRungs+1, n, serveRate)
	if err != nil {
		return nil, err
	}
	plain := s.runOpen(ctx, plainShots)
	pool := s.api.Pool()
	ps0, cs0 := pool.Stats(), pool.Cache().Stats()
	s.tracing.Store(true)
	out := s.runOpen(ctx, tracedShots)
	s.tracing.Store(false)
	ps1, cs1 := pool.Stats(), pool.Cache().Stats()
	maxRate, rungs, err := s.ladder(ctx, seed)
	if err != nil {
		return nil, err
	}
	refused, err := defaultJobsCheck(ctx, s, seed)
	if err != nil {
		return nil, err
	}

	var handler, gap, solve, prePost, late []float64
	for _, o := range out {
		late = append(late, ms(o.late))
		if o.err != nil || o.shot.Async {
			continue
		}
		h := s.handler[o.id]
		handler = append(handler, ms(h))
		gap = append(gap, ms(o.client-h))
		solve = append(solve, o.elapsed)
		prePost = append(prePost, ms(h)-o.elapsed)
	}

	// Decode cost on a fresh pool, where every corpus payload is a miss.
	var decode []float64
	dp := engine.NewPool(engine.PoolConfig{Workers: 1})
	for _, item := range s.corpus {
		t := time.Now()
		if _, err := dp.Decode(item.Payload); err != nil {
			dp.Close()
			return nil, err
		}
		decode = append(decode, ms(time.Since(t)))
	}
	dp.Close()

	chk := newChecker(s.corpus)
	f1, _ := chk.verifyAll(plain, "trace-plain")
	f2, _ := chk.verifyAll(out, "trace")
	attempted := len(plain) + len(out)
	for i, r := range rungs {
		f, _ := chk.verifyAll(r, fmt.Sprintf("rung%d", i))
		f2 += f
		attempted += len(r)
	}
	ran := (ps1.Completed - ps0.Completed) + (ps1.Errors - ps0.Errors) +
		(ps1.Canceled - ps0.Canceled) + (ps1.SolveCanceled - ps0.SolveCanceled)
	return &traced{
		attempted: attempted,
		failed:    f1 + f2,
		metrics: map[string]metric{
			"httpapi.handler_ms":           {median(handler), "ms"},
			"httpapi.client_gap_ms":        {median(gap), "ms"},
			"engine.solve_ms":              {median(solve), "ms"},
			"engine.pre_post_ms":           {median(prePost), "ms"},
			"engine.result_hit_ratio":      {hitRatio(cs1.ResultHits-cs0.ResultHits, cs1.ResultMisses-cs0.ResultMisses), "ratio"},
			"engine.instance_hit_ratio":    {hitRatio(cs1.InstanceHits-cs0.InstanceHits, cs1.InstanceMisses-cs0.InstanceMisses), "ratio"},
			"engine.rejected":              {float64(ps1.Rejected - ps0.Rejected + ps1.DecodeRejected - ps0.DecodeRejected), "count"},
			"engine.coalesce_ratio":        {1 - float64(ps1.Batches-ps0.Batches)/float64(ran), "ratio"},
			"graphio.decode_ms":            {median(decode), "ms"},
			"loadgen.late_ms":              {quantile(late, 0.99), "ms"},
			"trace.overhead_ratio":         {median(lats(out)) / median(lats(plain)), "ratio"},
			"max_rate_rps":                 {maxRate, "1/s"},
			"httpapi.default_jobs_refused": {float64(refused), "count"},
		},
	}, nil
}

func hitRatio(hits, misses int64) float64 {
	return float64(hits) / float64(hits+misses)
}

func countFailed(out []sent) int {
	n := 0
	for _, o := range out {
		if o.err != nil {
			n++
		}
	}
	return n
}
