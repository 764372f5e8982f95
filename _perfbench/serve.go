package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/baseline"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/serve"
)

const (
	// users is the simulated user population; each user asks one fixed
	// (subject, predicate) query.
	users = 3_000_000
	topK  = 10
	// callers is the number of goroutines of the saturation phases,
	// each calling back to back: two per scheduler thread keep both
	// busy and the dispatch queue fed. More would only queue in the Go
	// scheduler: on the 2-CPU host the benchmark was tuned on, 16
	// callers raised Zipf throughput by 10% but its spread between
	// one-second samples from 0.08 to 0.2 of the median.
	callers = 4
	// verifySamples is how many served rankings are compared bit for
	// bit with the baseline scorer.
	verifySamples = 64
	// windows splits each phase kind into equal parts over the whole
	// serving stage; latency and throughput are reported as the median
	// over the parts, so stalls of a shared host (virtual CPUs
	// descheduled for milliseconds at a time) move the parts they hit,
	// not the result. The fixed rates give each latency part at least
	// 1,000 requests, so its p99 has ten samples beyond it.
	windows = 20
	// satWindows is the number of throughput parts of a stage.
	satWindows = 40
)

// phases sizes one serving stage. Its fixed-rate and saturated time are
// cut into rounds that alternate, fixed rate first, so that both are
// sampled across the whole stage: drift of a shared host over a stage
// then reaches each metric's median only through the share of parts it
// covers.
type phases struct {
	readies  int           // model load → first answer repetitions, in total
	latency  time.Duration // open loop at the workload's fixed rate, in total
	overload time.Duration // callers back to back, offered load above capacity, in total
	rounds   int           // alternations; divides windows and satWindows
}

// alsServePhases is the short serving leg that closes an ALS
// workload's pipeline, a third as long as its ALS phase.
func alsServePhases(sec float64) phases {
	d := time.Duration(sec * float64(time.Second))
	return phases{readies: 51, latency: d / 4, overload: d / 12, rounds: 5}
}

// servePhases spends a serving workload's measured seconds: half at the
// fixed rate, half saturated.
func servePhases(sec float64) phases {
	d := time.Duration(sec * float64(time.Second))
	return phases{readies: 51, latency: d / 2, overload: d / 2, rounds: 10}
}

// query is one (subject, predicate) top-k object request.
type query struct{ s, p int64 }

// userQuery maps a user id to its query with splitmix64, so millions
// of users project statelessly onto the subject × predicate space.
func userQuery(user uint64, subjects, predicates int64) query {
	z := user + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return query{int64(z % uint64(subjects)), int64((z >> 32) % uint64(predicates))}
}

// userSource draws user ids for the workload's query mix.
func userSource(mix string, rng *rand.Rand) func() uint64 {
	if mix == "uniform" {
		return func() uint64 { return uint64(rng.Int63n(users)) }
	}
	z := rand.NewZipf(rng, 1.2, 1, users-1)
	return z.Uint64
}

// serveOut holds what the traced run reports about serving.
type serveOut struct {
	loadS, buildS, modelMB float64
	stats                  serve.Stats
	sent, failed           int
	offeredQPS, lateP99ms  float64
	kernelUs, kernelFlops  float64
}

// loadModel reads a model file with the root package's LoadParafac.
func loadModel(path string) (*haten2.ParafacResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return haten2.LoadParafac(f)
}

// sameParafac reports whether a PARAFAC model's weights and factors are
// bit-identical to a root-package result's.
func sameParafac(lambda []float64, factors []*matrix.Matrix, p *haten2.ParafacResult) bool {
	if !sameBits(lambda, p.Lambda) {
		return false
	}
	for m, f := range factors {
		if !sameBits(f.Data, p.Factors[m].Unwrap().Data) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// serveStage loads the model file, builds a server and drives the
// workload's query mix in rounds of readiness samples (model file to a
// new server's first answer), a latency phase at the fixed rate and a
// saturation phase. It sets the serve_* metrics and checks served
// rankings against the baseline scorer.
func serveStage(w workload, cfg runConfig, path string, src *haten2.ParafacResult, ph phases, t *tally) (serveOut, error) {
	var out serveOut
	info, err := os.Stat(path)
	if err != nil {
		return out, err
	}
	out.modelMB = float64(info.Size()) / 1e6

	var ready, loads, builds []float64
	// bringUp loads the model file into a new server and waits for its
	// first answer, recording the time of each step.
	bringUp := func() (*haten2.ParafacResult, *serve.Server, error) {
		runtime.GC()
		t0 := time.Now()
		m, err := loadModel(path)
		if err != nil {
			return nil, nil, fmt.Errorf("load model: %w", err)
		}
		t1 := time.Now()
		model, err := serve.NewParafacModel(m.Lambda, matrixOf(m.Factors))
		if err != nil {
			return nil, nil, err
		}
		srv, err := serve.New(model, serve.Config{})
		if err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		_, err = srv.TopKObjects(0, 0, topK, nil)
		t.op(err)
		ready = append(ready, time.Since(t0).Seconds())
		loads = append(loads, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		return m, srv, nil
	}
	// readyRounds brings up and closes the rest of the readiness
	// samples' servers at the start of each round, beside the serving one.
	readyRounds := func() error {
		for i := 0; i < (ph.readies-1)/ph.rounds; i++ {
			_, extra, err := bringUp()
			if err != nil {
				return err
			}
			extra.Close()
		}
		return nil
	}
	loaded, srv, err := bringUp()
	if err != nil {
		return out, err
	}
	defer srv.Close()
	factors := matrixOf(loaded.Factors)
	t.check(sameParafac(loaded.Lambda, factors[:], src), "the loaded model differs from the saved one")

	subjects, predicates := int64(factors[0].Rows), int64(factors[2].Rows)

	// Each round runs a latency phase, an open loop with Poisson
	// arrivals at the fixed rate timing each request from its due time,
	// and then a saturation phase, in which every caller issues its next
	// query as soon as the previous one returns, so the offered rate
	// exceeds capacity.
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 17))
	draw := userSource(w.mix, rng)
	perRound := max(1, int(w.rate*ph.latency.Seconds())/ph.rounds)
	latWin, satWin := windows/ph.rounds, satWindows/ph.rounds
	var qs []query
	var p50s, p99s, qps []float64
	var late []time.Duration
	var elapsed time.Duration
	for r := 0; r < ph.rounds; r++ {
		if err := readyRounds(); err != nil {
			return out, err
		}
		rq := make([]query, perRound)
		due := make([]time.Duration, perRound)
		var at float64
		for i := range rq {
			rq[i] = userQuery(draw(), subjects, predicates)
			if w.injectFail > 0 && (len(qs)+i+1)%w.injectFail == 0 {
				rq[i].s = -1 // out of range: the server rejects it
			}
			at += rng.ExpFloat64() / w.rate
			due[i] = time.Duration(at * float64(time.Second))
		}
		lr := openLoop(srv, rq, due)
		for win := 0; win < latWin; win++ {
			lo, hi := win*perRound/latWin, (win+1)*perRound/latWin
			p50s = append(p50s, percentileMS(lr.lat[lo:hi], 0.50))
			p99s = append(p99s, percentileMS(lr.lat[lo:hi], 0.99))
		}
		for _, l := range lr.lat {
			if l < 0 {
				t.op(fmt.Errorf("query failed"))
			} else {
				t.op(nil)
			}
		}
		out.failed += int(lr.failed)
		late = append(late, lr.late...)
		elapsed += lr.elapsed
		qs = append(qs, rq...)

		dur := ph.overload / time.Duration(ph.rounds)
		sat := saturate(srv, w.mix, cfg.seed*1009+int64(r), subjects, predicates, dur, satWin)
		for _, c := range sat.perWindow {
			qps = append(qps, float64(c)/(dur.Seconds()/float64(satWin)))
		}
		t.attempted += sat.sent
		t.failed += sat.failed
	}
	out.loadS, out.buildS = median(loads), median(builds)
	t.set("serve_ready_s", median(ready))
	t.set("serve_p50_ms", median(p50s))
	t.set("load.p99_ms", median(p99s))
	t.set("serve_qps", median(qps))
	out.sent = len(qs)
	out.offeredQPS = float64(len(qs)) / elapsed.Seconds()
	out.lateP99ms = percentileMS(late, 0.99)

	verifyRankings(srv, loaded, qs, t)
	out.stats = srv.Stats()
	if cfg.trace {
		out.kernelUs, out.kernelFlops = kernelTiming(loaded, qs, out.stats.Shards, out.stats.MaxBatch, t)
	}
	return out, nil
}

// loadResult is the outcome of an open-loop phase.
type loadResult struct {
	lat     []time.Duration // due → answer per request; -1 for a failed one
	late    []time.Duration // due → sent (generator lateness)
	failed  int64
	elapsed time.Duration
}

// openLoop issues qs[i] at due[i] after the start, whatever the server
// is doing, from two connections (goroutines) that take alternate
// requests. Each sleeps until its next request is due and issues it
// inline; a request that comes back late makes the connection's next
// ones late, and since every latency counts from the due time, not the
// send, that wait is charged to the server (no coordinated omission).
// Issuing inline, rather than handing each request to an idle goroutine,
// keeps a goroutine wake-up per request out of the measurement.
func openLoop(srv *serve.Server, qs []query, due []time.Duration) loadResult {
	const conns = 2
	n := len(qs)
	res := loadResult{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var failed [conns]int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(conns)
	for g := 0; g < conns; g++ {
		go func(g int) {
			defer wg.Done()
			dst := make([]serve.Result, 0, topK)
			for id := g; id < n; id += conns {
				pace(start, due[id])
				res.late[id] = time.Since(start) - due[id]
				var err error
				dst, err = srv.TopKObjects(qs[id].s, qs[id].p, topK, dst)
				if err != nil {
					res.lat[id] = -1
					failed[g]++
					continue
				}
				res.lat[id] = time.Since(start) - due[id]
			}
		}(g)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, f := range failed {
		res.failed += f
	}
	return res
}

// pace returns at the due time. It sleeps in nanosleep(2), which holds
// the pacer's OS thread and wakes within tens of microseconds; the
// runtime's own timers wake a millisecond late or more when the process
// is idle, which would let the generator, not the server, set the
// latency. Spinning instead would take a CPU from a 2-CPU server.
func pace(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR only cuts the sleep short; the loop sleeps again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// percentileMS returns the p-quantile of ds in milliseconds, counting
// a failed request (-1) as slower than any answer. When the quantile
// falls on a failure the result is the largest float64: the run missed
// every latency limit.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]time.Duration, len(ds))
	for i, d := range ds {
		if d < 0 {
			d = math.MaxInt64
		}
		s[i] = d
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := s[int(p*float64(len(s)-1))]
	if d == math.MaxInt64 {
		return math.MaxFloat64
	}
	return float64(d) / 1e6
}

// saturation is the outcome of a saturation phase.
type saturation struct {
	perWindow    []int64 // answers completed in each window
	sent, failed int64
}

// saturate runs callers back to back against srv for dur, drawing each
// caller's queries from seed, and counts answers in nWin equal windows.
func saturate(srv *serve.Server, mix string, seed, subjects, predicates int64, dur time.Duration, nWin int) saturation {
	per := make([]saturation, callers)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*104729 + int64(g)))
			draw := userSource(mix, rng)
			dst := make([]serve.Result, 0, topK)
			c := &per[g]
			c.perWindow = make([]int64, nWin)
			for time.Since(start) < dur {
				q := userQuery(draw(), subjects, predicates)
				var err error
				dst, err = srv.TopKObjects(q.s, q.p, topK, dst)
				c.sent++
				if err != nil {
					c.failed++
					continue
				}
				if done := time.Since(start); done < dur {
					c.perWindow[int(done*time.Duration(nWin)/dur)]++
				}
			}
		}(g)
	}
	wg.Wait()
	s := saturation{perWindow: make([]int64, nWin)}
	for _, c := range per {
		for i := range s.perWindow {
			s.perWindow[i] += c.perWindow[i]
		}
		s.sent += c.sent
		s.failed += c.failed
	}
	return s
}

// verifyRankings compares the server's answers for the first distinct
// valid queries of the stream with the single-threaded baseline scorer,
// index and score bits exactly.
func verifyRankings(srv *serve.Server, m *haten2.ParafacResult, qs []query, t *tally) {
	factors := matrixOf(m.Factors)
	seen := map[query]bool{}
	var dst []serve.Result
	for _, q := range qs {
		if len(seen) == verifySamples {
			break
		}
		if q.s < 0 || seen[q] {
			continue
		}
		seen[q] = true
		var err error
		dst, err = srv.TopKObjects(q.s, q.p, topK, dst)
		t.op(err)
		if err != nil {
			continue
		}
		want := baseline.ParafacTopKObjects(m.Lambda, factors, q.s, q.p, topK)
		t.check(sameRanking(dst, want), "served ranking of (%d,%d) differs from the baseline scorer", q.s, q.p)
	}
	t.check(len(seen) > 0, "no query was verified against the baseline scorer")
}

func sameRanking(got []serve.Result, want []baseline.TopKResult) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// kernelTiming times the serving kernels directly on one batch of
// queries: MulBTInto of the batch against each shard of the object
// factor, SelectTopK per query and shard, MergeTopK across shards —
// the work one dispatch does, without queueing or caching. It returns
// microseconds and computed floating-point operations per query, and
// checks the merged rankings against the baseline scorer.
func kernelTiming(m *haten2.ParafacResult, qs []query, shards, maxBatch int, t *tally) (usPerQuery, flopsPerQuery float64) {
	factors := matrixOf(m.Factors)
	obj := factors[1]
	rank := obj.Cols
	var batch []query
	for _, q := range qs {
		if q.s >= 0 && len(batch) < maxBatch {
			batch = append(batch, q)
		}
	}
	b := len(batch)
	qm := matrix.New(b, rank)
	for i, q := range batch {
		srow, prow, row := factors[0].Row(int(q.s)), factors[2].Row(int(q.p)), qm.Row(i)
		for r := range row {
			row[r] = m.Lambda[r] * srow[r] * prow[r] // the serving layer's evaluation order
		}
	}
	type shard struct {
		lo     int
		rows   *matrix.Matrix
		scores *matrix.Matrix
	}
	sh := make([]shard, shards)
	for i := range sh {
		lo, hi := i*obj.Rows/shards, (i+1)*obj.Rows/shards
		sh[i] = shard{lo: lo,
			rows:   &matrix.Matrix{Rows: hi - lo, Cols: rank, Data: obj.Data[lo*rank : hi*rank]},
			scores: matrix.New(b, hi-lo)}
	}
	partials := make([][]serve.Result, b*shards)
	merged := make([][]serve.Result, b)
	var heads, pos []int
	const budget = 300 * time.Millisecond
	iters := 0
	start := time.Now()
	for time.Since(start) < budget {
		for s, x := range sh {
			matrix.MulBTInto(x.scores, qm, x.rows)
			for i := 0; i < b; i++ {
				partials[i*shards+s] = serve.SelectTopK(partials[i*shards+s][:0], x.scores.Row(i), int64(x.lo), topK)
			}
		}
		for i := 0; i < b; i++ {
			merged[i], heads, pos = serve.MergeTopK(merged[i][:0], partials[i*shards:(i+1)*shards], topK, heads, pos)
		}
		iters++
	}
	elapsed := time.Since(start)
	for i, q := range batch {
		want := baseline.ParafacTopKObjects(m.Lambda, factors, q.s, q.p, topK)
		t.check(sameRanking(merged[i], want), "kernel ranking of (%d,%d) differs from the baseline scorer", q.s, q.p)
	}
	return elapsed.Seconds() * 1e6 / float64(iters*b), float64(2 * obj.Rows * rank)
}
