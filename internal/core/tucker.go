package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// TuckerResult is the outcome of a Tucker-ALS run.
type TuckerResult struct {
	// Model holds the core tensor and orthonormal factor matrices.
	Model *tensor.TuckerModel
	// Iters is the number of completed outer iterations.
	Iters int
	// CoreNorms holds ‖𝒢‖_F after each iteration — the quantity whose
	// stagnation is Algorithm 2's stopping criterion.
	CoreNorms []float64
	// Fits holds per-iteration fits when Options.TrackFit is set.
	Fits []float64
	// Converged reports whether ‖𝒢‖ stagnated before MaxIters.
	Converged bool
}

// TuckerALS runs the 3-way Tucker-ALS of Algorithm 2 with the bottleneck
// 𝒳 ×_{m1} U1ᵀ ×_{m2} U2ᵀ computed on the cluster by the selected
// HaTen2 plan. core gives the desired core tensor shape (P, Q, R); the
// factor update (P leading left singular vectors of Y₍ₙ₎) runs locally
// because Y₍ₙ₎ is an Iₙ×(Q·R) matrix with a tiny second dimension.
func TuckerALS(c *mr.Cluster, x *tensor.Tensor, core [3]int, opt Options) (*TuckerResult, error) {
	for m, p := range core {
		if p <= 0 {
			return nil, fmt.Errorf("core: core dimension %d is %d, must be positive", m, p)
		}
		if int64(p) > x.Dim(m) {
			return nil, fmt.Errorf("core: core dimension %d (%d) exceeds tensor dim %d", m, p, x.Dim(m))
		}
	}
	opt = opt.withDefaults()
	defer installBackend(c, opt)()
	s, err := Stage(c, tmpName(c, "tucker", "X"), x)
	if err != nil {
		return nil, err
	}
	defer s.cleanup([]string{s.Name})
	return tuckerALSStaged(s, x, core, opt)
}

func tuckerALSStaged(s *Staged, x *tensor.Tensor, core [3]int, opt Options) (*TuckerResult, error) {
	s.SetCodec(opt.Codec)
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("run", "tucker-als/"+opt.Variant.String()))
	rng := rand.New(rand.NewSource(opt.Seed))
	// Initialize all factors as random orthonormal frames (Algorithm 2
	// initializes B and C; mode-0 is overwritten by the first update).
	factors := make([]*matrix.Matrix, 3)
	for m := 0; m < 3; m++ {
		q, _ := matrix.QR(matrix.Random(int(s.Dims[m]), core[m], rng))
		factors[m] = q
	}
	res := &TuckerResult{}
	var lastY []YEntry
	prevNorm := 0.0
	startIter := 0
	if opt.Checkpoint != "" {
		ck, ckIter, err := loadTuckerCheckpoint(s.cluster, opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			for m := range factors {
				if len(ck.factors) != 3 || ck.factors[m].Cols != core[m] {
					return nil, fmt.Errorf("core: checkpoint %q does not match core shape %v",
						opt.Checkpoint, core)
				}
			}
			for m := range factors {
				factors[m] = ck.factors[m].Clone()
			}
			res.CoreNorms = append([]float64(nil), ck.coreNorms...)
			res.Fits = append([]float64(nil), ck.fits...)
			res.Iters = ckIter
			res.Model = &tensor.TuckerModel{Core: cloneDense(ck.core), Factors: cloneMatrices(ck.factors)}
			prevNorm = ck.prevNorm
			startIter = ckIter
			if ck.converged {
				res.Converged = true
				return res, nil
			}
		}
	}
	for it := startIter; it < opt.MaxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		for n := 0; n < 3; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			m1, m2 := otherModes(n)
			ys, err := TuckerContract(s, n, factors[m1], factors[m2], opt.Variant)
			if err != nil {
				return nil, err
			}
			// A⁽ⁿ⁾ ← leading core[n] left singular vectors of Y₍ₙ₎.
			// Y₍ₙ₎ is Iₙ × (core[m1]·core[m2]); the column layout does
			// not affect the left singular vectors.
			ym := matrix.New(int(s.Dims[n]), core[m1]*core[m2])
			for _, y := range ys {
				ym.Set(int(y.I), int(y.Q)*core[m2]+int(y.R), y.Val)
			}
			factors[n] = matrix.LeadingLeftSingularVectors(ym, core[n])
			if n == 2 {
				lastY = ys
			} else {
				mr.Recycle(ys)
			}
			tr.End(modeSpan)
		}
		// 𝒢 ← 𝒴 ×₃ Cᵀ (Algorithm 2 line 9): the last contraction built
		// 𝒴 = 𝒳 ×₁Aᵀ ×₂Bᵀ with entries (k, p, q); contract mode 3
		// against the freshly updated C.
		g := tensor.NewDense(int64(core[0]), int64(core[1]), int64(core[2]))
		cf := factors[2]
		for _, y := range lastY {
			for r := 0; r < core[2]; r++ {
				cv := cf.At(int(y.I), r)
				if cv == 0 {
					continue
				}
				g.Add(y.Val*cv, int64(y.Q), int64(y.R), int64(r))
			}
		}
		mr.Recycle(lastY)
		norm := g.Norm()
		res.CoreNorms = append(res.CoreNorms, norm)
		res.Iters = it + 1
		res.Model = &tensor.TuckerModel{Core: g, Factors: append([]*matrix.Matrix(nil), factors...)}
		if opt.TrackFit {
			res.Fits = append(res.Fits, res.Model.Fit(x))
		}
		// Stop when ‖𝒢‖ ceases to increase (Algorithm 2 line 10).
		converged := it > 0 && norm-prevNorm < opt.Tol*math.Max(1, prevNorm)
		if !converged {
			prevNorm = norm
		}
		if opt.Checkpoint != "" {
			if err := saveTuckerCheckpoint(s.cluster, opt.Checkpoint, it+1,
				factors, g, res.CoreNorms, res.Fits, prevNorm, converged); err != nil {
				return nil, err
			}
		}
		tr.End(iterSpan)
		if converged {
			res.Converged = true
			break
		}
	}
	return res, nil
}
