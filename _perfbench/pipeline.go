package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	haten2 "github.com/haten2/haten2"
	"github.com/haten2/haten2/internal/core"
	"github.com/haten2/haten2/internal/gen"
	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/mrproc"
	"github.com/haten2/haten2/internal/tensor"
)

const (
	// machines is the simulated cluster size of every ALS stage.
	machines = 4
	// alsSeed is the factor-initialization seed of every decomposition.
	// It is fixed, not taken from --seed, so that the iteration count to
	// convergence depends on the tensor alone: with a per-seed random
	// start the count varies by ±50% between seeds, which would swamp
	// every timing metric's spread.
	alsSeed = 1
	// modelSeed generates the served model's tensors on the serving
	// workloads. Their inputs are the query streams, drawn from --seed;
	// the model is a fixed fixture, so its decomposition in set-up
	// costs the same on every seed (a rank-16 ALS on a per-seed tensor
	// converges in anywhere from 5 to 8 iterations).
	modelSeed = 1
	// procWorkers is the mrproc worker count of the traced proc leg.
	procWorkers = 2
	// minSetups is how many times an ALS run sets up and runs the ALS
	// stage, at least, to report medians.
	minSetups = 3
	// serveSetups is how many times a serving run sets up.
	serveSetups = 5
)

// inputs are the generated tensors of one run.
type inputs struct {
	kb3  *tensor.Tensor // TF-IDF weighted knowledge base, 3-way
	log4 *tensor.Tensor // connection counts, 4-way
}

// genInputs builds the workload's tensors from the seed, or from
// modelSeed on the serving workloads.
func genInputs(w workload, seed int64) inputs {
	if w.serveHeavy {
		seed = modelSeed
	}
	kc := w.kb
	kc.Seed = seed
	lc := w.log4
	lc.Seed = seed
	return inputs{
		kb3:  gen.NewKB(kc).FilterScarcePredicates(1).Tensor(),
		log4: gen.NewIntrusion4D(lc, w.hours).Tensor,
	}
}

// sizes describes a run's inputs and settings for its provenance line.
func (w workload) sizes(in inputs) map[string]any {
	return map[string]any{
		"kb_dims": in.kb3.Dims(), "kb_nnz": in.kb3.NNZ(), "rank": w.rank, "tucker_core": w.tucker,
		"log_dims": in.log4.Dims(), "log_nnz": in.log4.NNZ(), "rank4": w.rank4,
		"machines": machines, "mix": w.mix, "rate_qps": w.rate,
		"users": users, "top_k": topK,
	}
}

// alsOut is the outcome of one ALS stage: the three driver calls on
// one cluster.
type alsOut struct {
	parafac *haten2.ParafacResult
	tucker  *core.TuckerResult
	nway    *core.ParafacResultN

	parafacS, tuckerS, nwayS float64
	simS, shuffleMB          float64
}

func lastFit(fits []float64) float64 {
	if len(fits) == 0 {
		return math.NaN()
	}
	return fits[len(fits)-1]
}

// newCluster returns a fresh simulated cluster with be installed (nil
// keeps the in-process data plane). The root package's Parafac takes no
// backend option, so the backend is installed on the cluster for the
// whole stage rather than per call through core.Options.Backend; the
// drivers behave identically either way.
func newCluster(be mr.Backend) *haten2.Cluster {
	hc := haten2.NewCluster(haten2.ClusterConfig{Machines: machines})
	if be != nil {
		hc.Unwrap().SetBackend(be)
	}
	return hc
}

// runALS runs PARAFAC-DRI (through the root package, whose result the
// serving stage saves), Tucker-DRI and 4-way PARAFAC-DRI to the default
// tolerance with fit tracking, counting each call in t.
func runALS(w workload, in inputs, be mr.Backend, t *tally) (alsOut, error) {
	hc := newCluster(be)
	c := hc.Unwrap()
	var out alsOut
	var err error

	out.parafac, out.parafacS, err = parafacDriver(hc, w, in)
	t.op(err)
	if err != nil {
		return out, fmt.Errorf("parafac: %w", err)
	}

	opt := core.Options{Variant: core.DRI, Seed: alsSeed, TrackFit: true}
	t0 := time.Now()
	out.tucker, err = core.TuckerALS(c, in.kb3, w.tucker, opt)
	out.tuckerS = time.Since(t0).Seconds()
	t.op(err)
	if err != nil {
		return out, fmt.Errorf("tucker: %w", err)
	}

	t0 = time.Now()
	out.nway, err = core.ParafacALSN(c, in.log4, w.rank4, opt)
	out.nwayS = time.Since(t0).Seconds()
	t.op(err)
	if err != nil {
		return out, fmt.Errorf("4-way parafac: %w", err)
	}
	tot := c.Totals()
	out.simS = tot.SimSeconds
	out.shuffleMB = float64(tot.ShuffleBytes) / 1e6
	return out, nil
}

// parafacDriver runs PARAFAC-DRI on the knowledge base through the root
// package and returns the result and the call's wall time.
func parafacDriver(hc *haten2.Cluster, w workload, in inputs) (*haten2.ParafacResult, float64, error) {
	t0 := time.Now()
	p, err := haten2.Parafac(hc, haten2.WrapTensor(in.kb3), w.rank,
		haten2.Options{Variant: haten2.DRI, Seed: alsSeed, TrackFit: true})
	return p, time.Since(t0).Seconds(), err
}

// fingerprint hashes the exact bits of every output factor, so two
// stages can be compared for bit identity cheaply.
func (o alsOut) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			b := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	put(o.parafac.Lambda)
	for _, f := range o.parafac.Factors {
		put(f.Unwrap().Data)
	}
	put(o.tucker.Model.Core.Data)
	for _, f := range o.tucker.Model.Factors {
		put(f.Data)
	}
	put(o.nway.Model.Lambda)
	for _, f := range o.nway.Model.Factors {
		put(f.Data)
	}
	return h.Sum64()
}

// checkFits records a violation unless every fit is finite.
func (o alsOut) checkFits(t *tally) {
	for name, f := range map[string]float64{
		"parafac": lastFit(o.parafac.Fits), "tucker": lastFit(o.tucker.Fits), "4-way parafac": lastFit(o.nway.Fits),
	} {
		t.check(!math.IsNaN(f) && !math.IsInf(f, 0), "%s fit is %v", name, f)
	}
}

// cpuTime is user+sys CPU of this process plus its reaped children.
func cpuTime() float64 {
	var self, kids syscall.Rusage
	// Getrusage fails only for an invalid "who" or buffer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is this process's peak resident set.
func peakRSSMB() float64 {
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return float64(self.Maxrss) / 1024 // Maxrss is in KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// spawn starts the mrproc workers of the traced proc leg.
func spawn() (*mrproc.Master, error) {
	// Each worker gets one scheduler thread: three processes of two
	// each on a 2-CPU host would oversubscribe it, and the workers only
	// serve socket requests.
	if err := os.Setenv("GOMAXPROCS", "1"); err != nil {
		return nil, err
	}
	m, err := mrproc.New(mrproc.Options{Workers: procWorkers})
	if err != nil {
		return nil, fmt.Errorf("spawn workers: %w", err)
	}
	return m, nil
}

// modelPath names the run's model file.
func modelPath(cfg runConfig, w workload) string {
	return filepath.Join(cfg.out, fmt.Sprintf("model-%s-%d-%d.txt", w.name, cfg.seed, os.Getpid()))
}

// saveModel writes the PARAFAC model with the root package's Save.
func saveModel(path string, p *haten2.ParafacResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("save model: %w", err)
	}
	return f.Close()
}

// untraced runs the workload with no instrumentation beyond whole-call
// timers and reports the end-to-end metrics.
func untraced(w workload, cfg runConfig, t *tally, prov *provenance) error {
	if w.serveHeavy {
		return untracedServe(w, cfg, t, prov)
	}
	return untracedALS(w, cfg, t, prov)
}

// alsSeries collects per-repetition ALS measurements.
type alsSeries struct {
	parafacS, tuckerS, nwayS, simS []float64
	first                          uint64
	last                           alsOut
}

// add records one ALS stage and checks it against the first one.
func (s *alsSeries) add(out alsOut, t *tally) {
	s.parafacS = append(s.parafacS, out.parafacS)
	s.tuckerS = append(s.tuckerS, out.tuckerS)
	s.nwayS = append(s.nwayS, out.nwayS)
	s.simS = append(s.simS, out.simS)
	out.checkFits(t)
	if len(s.parafacS) == 1 {
		s.first = out.fingerprint()
	} else {
		t.check(out.fingerprint() == s.first, "repetition %d changed the decomposition bits", len(s.parafacS))
	}
	s.last = out
}

func (s *alsSeries) report(t *tally) {
	t.set("parafac_s", median(s.parafacS))
	t.set("tucker_s", median(s.tuckerS))
	t.set("nway_s", median(s.nwayS))
	t.set("sim_s", median(s.simS))
	t.set("parafac_fit", lastFit(s.last.parafac.Fits))
	t.set("tucker_fit", lastFit(s.last.tucker.Fits))
	t.set("nway_fit", lastFit(s.last.nway.Fits))
}

// untracedALS repeats set-up (generate the tensors) and the ALS stage
// until --seconds have passed, at least minSetups times, then serves
// the model once. Set-up, the ALS metrics, cpu_s and allocs_m are
// medians over the repetitions.
func untracedALS(w workload, cfg runConfig, t *tally, prov *provenance) error {
	start := time.Now()
	var setup, cpu, allocs []float64
	var series alsSeries
	for rep := 0; rep < minSetups || time.Since(start).Seconds() < cfg.seconds; rep++ {
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		in := genInputs(w, cfg.seed)
		setup = append(setup, time.Since(t0).Seconds())
		prov.Sizes = w.sizes(in)
		cpu0, m0 := cpuTime(), mallocs()
		out, err := runALS(w, in, nil, t)
		if err != nil {
			return err
		}
		cpu = append(cpu, cpuTime()-cpu0)
		allocs = append(allocs, float64(mallocs()-m0)/1e6)
		series.add(out, t)
	}
	t.set("setup_s", median(setup))
	t.set("cpu_s", median(cpu))
	t.set("allocs_m", median(allocs))
	series.report(t)

	path := modelPath(cfg, w)
	defer os.Remove(path)
	if err := saveModel(path, series.last.parafac); err != nil {
		return err
	}
	if _, err := serveStage(w, cfg, path, series.last.parafac, alsServePhases(cfg.seconds), t); err != nil {
		return err
	}
	t.set("peak_rss_mb", peakRSSMB())
	return nil
}

// untracedServe repeats set-up (generate, decompose, save the model)
// serveSetups times and then serves for --seconds; the ALS metrics are
// medians over the set-ups, cpu_s and allocs_m cover the serving phase.
func untracedServe(w workload, cfg runConfig, t *tally, prov *provenance) error {
	path := modelPath(cfg, w)
	defer os.Remove(path)
	var setup []float64
	var series alsSeries
	for rep := 0; rep < serveSetups; rep++ {
		runtime.GC()
		t0 := time.Now()
		in := genInputs(w, cfg.seed)
		out, err := runALS(w, in, nil, t)
		if err != nil {
			return err
		}
		if err := saveModel(path, out.parafac); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		prov.Sizes = w.sizes(in)
		series.add(out, t)
	}
	t.set("setup_s", median(setup))
	series.report(t)

	runtime.GC()
	cpu0, m0 := cpuTime(), mallocs()
	if _, err := serveStage(w, cfg, path, series.last.parafac, servePhases(cfg.seconds), t); err != nil {
		return err
	}
	t.set("cpu_s", cpuTime()-cpu0)
	t.set("allocs_m", float64(mallocs()-m0)/1e6)
	t.set("peak_rss_mb", peakRSSMB())
	return nil
}

// matrixOf returns the internal matrices of the root package's factors.
func matrixOf(fs [3]*haten2.Matrix) [3]*matrix.Matrix {
	return [3]*matrix.Matrix{fs[0].Unwrap(), fs[1].Unwrap(), fs[2].Unwrap()}
}
