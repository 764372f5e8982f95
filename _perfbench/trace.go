package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/mrproc"
	"github.com/haten2/haten2/internal/obs"
	"github.com/haten2/haten2/internal/tensor"
)

// Driver defaults the mirrored sweeps reproduce (core.Options zero
// values).
const (
	maxIters = 20
	tol      = 1e-4
)

// wallSpan is one timed call across a layer boundary.
type wallSpan struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the recorder started
}

// recorder keeps wall-clock spans in memory for one goroutine; the
// traced run writes them out when it ends.
type recorder struct {
	t0    time.Time
	spans []wallSpan
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string) int {
	parent := 0
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, wallSpan{ID: id, Parent: parent, Name: name, Start: time.Since(r.t0)})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id-1].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// span times fn as a child of the innermost open span and returns its
// duration in seconds.
func (r *recorder) span(name string, fn func()) float64 {
	id := r.begin(name)
	fn()
	r.end(id)
	s := r.spans[id-1]
	return (s.End - s.Start).Seconds()
}

// total sums the durations of every span with the name.
func (r *recorder) total(name string) float64 {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// writeChrome writes the spans as Chrome trace_event complete events
// in process 2, beside the simulated-time trace the engine's tracer
// writes as process 1.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Pid: 2, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// iterSeed is the ALS drivers' per-iteration seed of the sweep RNG that
// reinitializes dead components (core/checkpoint.go).
func iterSeed(seed int64, it int) int64 {
	h := (uint64(seed) ^ 0x9e3779b97f4a7c15) + (uint64(it)+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return int64(h)
}

// otherModes returns the two modes other than n in ascending order.
func otherModes(n int) (int, int) {
	switch n {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	}
	return 0, 1
}

// mirror runs PARAFAC-DRI and Tucker-DRI sweeps built from the same
// public calls the drivers make (core.Stage, the contractions, the
// matrix kernels, Fit), with a wall span around each call and the
// engine's sim-time spans around iterations and modes. flops counts the
// dense matrix kernels from their shapes; the iterative Jacobi
// eigen-sweeps inside PseudoInverse and the SVD are not counted.
type mirror struct {
	c     *mr.Cluster
	rec   *recorder
	flops float64
}

// drop deletes a staged tensor, as the drivers do on return. The file
// was written by stage, so Delete's only error (absent file) cannot
// occur.
func (mi *mirror) drop(name string) { _ = mi.c.FS().Delete(name) }

func (mi *mirror) stage(base string, x *tensor.Tensor) (*core.Staged, error) {
	var s *core.Staged
	var err error
	mi.rec.span("core.Stage", func() {
		s, err = core.Stage(mi.c, fmt.Sprintf("%s.tmp%d.X", base, mi.c.NextTmp()), x)
	})
	return s, err
}

// parafac mirrors core.ParafacALS with TrackFit and default tolerance.
func (mi *mirror) parafac(x *tensor.Tensor, rank int) (*tensor.Kruskal, int, error) {
	tr := mi.c.Tracer()
	defer tr.End(tr.Begin("run", "parafac-als/DRI"))
	s, err := mi.stage("parafac", x)
	if err != nil {
		return nil, 0, err
	}
	defer mi.drop(s.Name)

	rng := rand.New(rand.NewSource(alsSeed))
	factors := make([]*matrix.Matrix, 3)
	for m := range factors {
		factors[m] = matrix.Random(int(s.Dims[m]), rank, rng)
	}
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 1
	}
	prevFit := math.Inf(-1)
	iters := 0
	for it := 0; it < maxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		sweepRNG := rand.New(rand.NewSource(iterSeed(alsSeed, it)))
		for n := 0; n < 3; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			m1, m2 := otherModes(n)
			var y, gram, pinv, a *matrix.Matrix
			var norms []float64
			mi.rec.span("core.ParafacContract", func() {
				y, err = core.ParafacContract(s, n, factors[m1], factors[m2], core.DRI)
			})
			if err != nil {
				return nil, 0, err
			}
			mi.rec.span("matrix.gram", func() {
				gram = matrix.Hadamard(matrix.Gram(factors[m1]), matrix.Gram(factors[m2]))
			})
			mi.rec.span("matrix.pinv", func() { pinv = matrix.PseudoInverse(gram) })
			mi.rec.span("matrix.mul", func() {
				a = matrix.Mul(y, pinv)
				norms = a.NormalizeColumns()
			})
			r := float64(rank)
			mi.flops += 2*float64(factors[m1].Rows+factors[m2].Rows)*r*r + r*r + // Gram, Hadamard
				2*r*r*r + // pseudo-inverse reconstruction
				2*float64(a.Rows)*r*r + 3*float64(a.Rows)*r // Mul, NormalizeColumns
			for c, nv := range norms {
				if nv == 0 {
					for i := 0; i < a.Rows; i++ {
						a.Set(i, c, sweepRNG.Float64())
					}
					a.NormalizeColumns()
					nv = 1
				}
				lambda[c] = nv
			}
			factors[n] = a
			tr.End(modeSpan)
		}
		iters = it + 1
		var fit float64
		mi.rec.span("tensor.fit", func() {
			fit = (&tensor.Kruskal{Lambda: append([]float64(nil), lambda...), Factors: factors}).Fit(x)
		})
		tr.End(iterSpan)
		if fit-prevFit >= 0 && fit-prevFit < tol {
			break
		}
		prevFit = fit
	}
	return &tensor.Kruskal{Lambda: lambda, Factors: factors}, iters, nil
}

// tucker mirrors core.TuckerALS with TrackFit and default tolerance.
func (mi *mirror) tucker(x *tensor.Tensor, shape [3]int) (*tensor.TuckerModel, int, error) {
	tr := mi.c.Tracer()
	defer tr.End(tr.Begin("run", "tucker-als/DRI"))
	s, err := mi.stage("tucker", x)
	if err != nil {
		return nil, 0, err
	}
	defer mi.drop(s.Name)

	rng := rand.New(rand.NewSource(alsSeed))
	factors := make([]*matrix.Matrix, 3)
	for m := range factors {
		factors[m], _ = matrix.QR(matrix.Random(int(s.Dims[m]), shape[m], rng))
	}
	var model *tensor.TuckerModel
	var lastY []core.YEntry
	prevNorm := 0.0
	iters := 0
	for it := 0; it < maxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		for n := 0; n < 3; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			m1, m2 := otherModes(n)
			var ys []core.YEntry
			mi.rec.span("core.TuckerContract", func() {
				ys, err = core.TuckerContract(s, n, factors[m1], factors[m2], core.DRI)
			})
			if err != nil {
				return nil, 0, err
			}
			ym := matrix.New(int(s.Dims[n]), shape[m1]*shape[m2])
			for _, y := range ys {
				ym.Set(int(y.I), int(y.Q)*shape[m2]+int(y.R), y.Val)
			}
			mi.rec.span("matrix.svd", func() { factors[n] = matrix.LeadingLeftSingularVectors(ym, shape[n]) })
			cols := float64(ym.Cols)
			mi.flops += 4 * float64(ym.Rows) * cols * cols // ymᵀym and ym·V
			if n == 2 {
				lastY = ys
			}
			tr.End(modeSpan)
		}
		var g *tensor.Dense
		var norm float64
		mi.rec.span("als.core_build", func() {
			g = tensor.NewDense(int64(shape[0]), int64(shape[1]), int64(shape[2]))
			cf := factors[2]
			for _, y := range lastY {
				for r := 0; r < shape[2]; r++ {
					cv := cf.At(int(y.I), r)
					if cv == 0 {
						continue
					}
					g.Add(y.Val*cv, int64(y.Q), int64(y.R), int64(r))
				}
			}
			norm = g.Norm()
		})
		iters = it + 1
		model = &tensor.TuckerModel{Core: g, Factors: append([]*matrix.Matrix(nil), factors...)}
		mi.rec.span("tensor.fit", func() { model.Fit(x) })
		tr.End(iterSpan)
		converged := it > 0 && norm-prevNorm < tol*math.Max(1, prevNorm)
		if converged {
			break
		}
		prevNorm = norm
	}
	return model, iters, nil
}

// calibrate runs one PARAFAC contraction per plan on a small random
// tensor and reports wall seconds per modelled second for each, and
// whether ranking the plans by modelled time gives the same order as
// ranking them by wall time (the paper's Tables III/IV claim).
func calibrate(seed int64, t *tally) error {
	const dim, nnz, rank, reps = 60, 3000, 4, 3
	x := gen.Random(seed, [3]int64{dim, dim, dim}, nnz)
	c := mr.NewCluster(mr.Config{Machines: machines})
	s, err := core.Stage(c, "calibrate.X", x)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(alsSeed))
	u1, u2 := matrix.Random(dim, rank, rng), matrix.Random(dim, rank, rng)
	variants := []core.Variant{core.Naive, core.DNN, core.DRN, core.DRI}
	wall := make([]float64, len(variants))
	sim := make([]float64, len(variants))
	for i, v := range variants {
		var ws []float64
		for rep := 0; rep < reps; rep++ {
			s0 := c.Totals().SimSeconds
			t0 := time.Now()
			_, err := core.ParafacContract(s, 0, u1, u2, v)
			ws = append(ws, time.Since(t0).Seconds())
			t.op(err)
			if err != nil {
				return fmt.Errorf("calibrate %v: %w", v, err)
			}
			sim[i] = c.Totals().SimSeconds - s0
		}
		wall[i] = median(ws)
		t.set("core.wall_per_sim."+strings.ToLower(v.String()), wall[i]/sim[i])
	}
	match := 1.0
	bySim, byWall := order(sim), order(wall)
	for i := range bySim {
		if bySim[i] != byWall[i] {
			match = 0
		}
	}
	t.set("core.plan_rank_match", match)
	return nil
}

// order returns the indexes of xs sorted by ascending value.
func order(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx
}

// traced runs the workload once with every layer measured and reports
// the per-layer metrics. The decompositions run twice in process:
// through the drivers, untraced (the reference output), and as the
// mirrored sweeps on a fresh cluster with the engine's sim-time tracer
// and the wall recorder. The run is incorrect unless the mirrored
// factors are bit-identical to the drivers'. With procLeg the drivers
// run a third time through mrproc workers behind the backend probe,
// which must reproduce the in-process factors bit for bit.
func traced(w workload, cfg runConfig, t *tally, prov *provenance) error {
	rec := newRecorder()
	var in inputs
	t.set("gen.tensor_s", rec.span("gen", func() { in = genInputs(w, cfg.seed) }))
	prov.Sizes = w.sizes(in)

	ref, err := runALS(w, in, nil, t)
	if err != nil {
		return err
	}
	ref.checkFits(t)
	t.set("als.parafac_iters", float64(ref.parafac.Iters))
	t.set("als.tucker_iters", float64(ref.tucker.Iters))
	t.set("als.nway_iters", float64(ref.nway.Iters))

	c := newCluster(nil).Unwrap()
	tr := obs.NewTracer()
	c.SetTracer(tr)
	mi := &mirror{c: c, rec: rec}
	var kr *tensor.Kruskal
	var tm *tensor.TuckerModel
	var pIters, tIters int
	pWall := rec.span("parafac", func() { kr, pIters, err = mi.parafac(in.kb3, w.rank) })
	if err != nil {
		return fmt.Errorf("mirrored parafac: %w", err)
	}
	tWall := rec.span("tucker", func() { tm, tIters, err = mi.tucker(in.kb3, w.tucker) })
	if err != nil {
		return fmt.Errorf("mirrored tucker: %w", err)
	}
	t.check(pIters == ref.parafac.Iters && sameParafac(kr.Lambda, kr.Factors, ref.parafac), "mirrored PARAFAC sweep differs from the driver's output")
	t.check(tIters == ref.tucker.Iters && sameTucker(tm, ref.tucker.Model), "mirrored Tucker sweep differs from the driver's output")

	st := c.FS().Stats()
	t.set("dfs.stage_s", rec.total("core.Stage"))
	t.set("dfs.write_mb", float64(st.BytesWritten)/1e6)
	t.set("dfs.read_mb", float64(st.BytesRead)/1e6)
	jobs := c.Jobs()
	var mapRecs, shufRecs, shufBytes, outRecs int64
	for _, j := range jobs {
		mapRecs += j.InputRecords
		shufRecs += j.ShuffleRecords
		shufBytes += j.ShuffleBytes
		outRecs += j.OutputRecords
	}
	t.set("mr.jobs", float64(len(jobs)))
	t.set("mr.map_records", float64(mapRecs))
	t.set("mr.shuffle_records", float64(shufRecs))
	t.set("mr.shuffle_mb", float64(shufBytes)/1e6)
	t.set("mr.output_records", float64(outRecs))
	phase := map[string]float64{}
	for _, s := range tr.Spans() {
		if s.Kind == "phase" {
			phase[s.Name] += s.Dur
		}
	}
	// The engine folds the fixed per-job start-up charge into the map
	// phase; it is split out here.
	startup := float64(len(jobs)) * mr.DefaultCostModel().JobStartup
	t.set("mr.sim_map_s", phase["map"]-startup)
	t.set("mr.sim_shuffle_s", phase["shuffle"])
	t.set("mr.sim_reduce_s", phase["reduce"])
	t.set("mr.sim_startup_s", startup)

	pc, tc := rec.total("core.ParafacContract"), rec.total("core.TuckerContract")
	t.set("core.parafac_contract_s", pc)
	t.set("core.tucker_contract_s", tc)
	t.set("core.contract_share", (pc+tc)/(pWall+tWall))
	t.set("als.core_build_s", rec.total("als.core_build"))
	t.set("matrix.gram_s", rec.total("matrix.gram"))
	t.set("matrix.pinv_s", rec.total("matrix.pinv"))
	t.set("matrix.mul_s", rec.total("matrix.mul"))
	t.set("matrix.svd_s", rec.total("matrix.svd"))
	t.set("matrix.flops", mi.flops)
	t.set("tensor.fit_s", rec.total("tensor.fit"))
	// The reference run above was the process's first decomposition;
	// the untraced time to compare with is a warm second call.
	_, untracedS, err := parafacDriver(newCluster(nil), w, in)
	t.op(err)
	if err != nil {
		return err
	}
	t.set("trace.overhead_frac", pWall/untracedS-1)

	if w.procLeg {
		if err := procLeg(w, in, ref, rec, t); err != nil {
			return err
		}
	} else {
		t.set("backend.spawn_s", 0)
		newProbe(nil).report(t, 0)
	}

	if err := calibrate(cfg.seed, t); err != nil {
		return err
	}

	path := modelPath(cfg, w)
	defer os.Remove(path)
	t.set("persist.save_s", rec.span("persist.save", func() { err = saveModel(path, ref.parafac) }))
	if err != nil {
		return err
	}
	ph := alsServePhases(cfg.seconds)
	if w.serveHeavy {
		ph = servePhases(cfg.seconds)
	}
	so, err := serveStage(w, cfg, path, ref.parafac, ph, t)
	if err != nil {
		return err
	}
	t.set("persist.load_s", so.loadS)
	t.set("persist.model_mb", so.modelMB)
	t.set("serve.build_s", so.buildS)
	t.set("serve.hit_rate", so.stats.HitRate())
	coalesced := 0.0
	if so.stats.Queries > 0 {
		coalesced = float64(so.stats.Coalesced) / float64(so.stats.Queries)
	}
	t.set("serve.coalesced_frac", coalesced)
	t.set("serve.misses", float64(so.stats.CacheMisses))
	t.set("serve.batches", float64(so.stats.Batches))
	t.set("serve.batch_occupancy", so.stats.BatchOccupancy())
	t.set("serve.kernel_us_per_query", so.kernelUs)
	t.set("serve.kernel_flops_per_query", so.kernelFlops)
	t.set("load.offered_qps", so.offeredQPS)
	t.set("load.sent", float64(so.sent))
	t.set("load.failed", float64(so.failed))
	t.set("load.late_p99_ms", so.lateP99ms)

	prefix := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d", w.name, cfg.seed))
	if err := rec.writeChrome(prefix + ".wall.json"); err != nil {
		return err
	}
	f, err := os.Create(prefix + ".sim.json")
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// procLeg runs the ALS stage through mrproc workers behind the backend
// probe, reports the backend.* metrics and checks the factors against
// the in-process reference.
func procLeg(w workload, in inputs, ref alsOut, rec *recorder, t *tally) error {
	var m *mrproc.Master
	var err error
	t.set("backend.spawn_s", rec.span("mrproc.New", func() { m, err = spawn() }))
	if err != nil {
		return err
	}
	defer m.Close()
	pr := newProbe(m)
	var out alsOut
	rec.span("proc", func() { out, err = runALS(w, in, pr, t) })
	if err != nil {
		return fmt.Errorf("proc leg: %w", err)
	}
	t.check(out.fingerprint() == ref.fingerprint(), "the proc engine's factors differ from the in-process engine's")
	pr.report(t, out.shuffleMB)
	return nil
}

func sameTucker(a, b *tensor.TuckerModel) bool {
	if !sameBits(a.Core.Data, b.Core.Data) {
		return false
	}
	for m := range a.Factors {
		if !sameBits(a.Factors[m].Data, b.Factors[m].Data) {
			return false
		}
	}
	return true
}
