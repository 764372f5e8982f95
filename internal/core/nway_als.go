package core

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// ParafacResultN is the outcome of an N-way PARAFAC run.
type ParafacResultN struct {
	Model     *tensor.Kruskal
	Iters     int
	Fits      []float64
	Converged bool
}

// ParafacALSN runs N-way PARAFAC-ALS (the paper's §II-B1 N-way
// formulation) with every bottleneck product computed by the
// distributed DRI plan. Orders 3 and 4 are supported.
func ParafacALSN(c *mr.Cluster, x *tensor.Tensor, rank int, opt Options) (*ParafacResultN, error) {
	if rank <= 0 {
		return nil, fmt.Errorf("core: rank must be positive, got %d", rank)
	}
	opt = opt.withDefaults()
	defer installBackend(c, opt)()
	s, err := StageN(c, tmpName(c, "parafacN", "X"), x)
	if err != nil {
		return nil, err
	}
	defer s.cleanupN([]string{s.Name})
	s.SetCodec(opt.Codec)
	tr := c.Tracer()
	defer tr.End(tr.Begin("run", "parafacN-als/DRI"))

	order := len(s.Dims)
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*matrix.Matrix, order)
	for m := 0; m < order; m++ {
		factors[m] = matrix.Random(int(s.Dims[m]), rank, rng)
	}
	lambda := make([]float64, rank)
	for r := range lambda {
		lambda[r] = 1
	}
	res := &ParafacResultN{}
	prevFit := math.Inf(-1)
	for it := 0; it < opt.MaxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		for n := 0; n < order; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			modes := otherModesN(order, n)
			others := make([]*matrix.Matrix, len(modes))
			for i, m := range modes {
				others[i] = factors[m]
			}
			ys, err := s.contractN(n, others, true)
			if err != nil {
				return nil, err
			}
			y := matrix.New(int(s.Dims[n]), rank)
			for _, e := range ys {
				r := int(e.Cols[0])
				y.Set(int(e.I), r, y.At(int(e.I), r)+e.Val)
			}
			mr.Recycle(ys)
			gram := matrix.New(rank, rank)
			for i := range gram.Data {
				gram.Data[i] = 1
			}
			for _, o := range others {
				gram = matrix.Hadamard(gram, matrix.Gram(o))
			}
			a := matrix.Mul(y, matrix.PseudoInverse(gram))
			norms := a.NormalizeColumns()
			for r, nv := range norms {
				if nv == 0 {
					for i := 0; i < a.Rows; i++ {
						a.Set(i, r, rng.Float64())
					}
					a.NormalizeColumns()
					nv = 1
				}
				lambda[r] = nv
			}
			factors[n] = a
			tr.End(modeSpan)
		}
		res.Iters = it + 1
		tr.End(iterSpan)
		if opt.TrackFit {
			model := &tensor.Kruskal{Lambda: append([]float64(nil), lambda...), Factors: factors}
			fit := model.Fit(x)
			res.Fits = append(res.Fits, fit)
			if d := fit - prevFit; d >= 0 && d < opt.Tol {
				res.Converged = true
				break
			}
			prevFit = fit
		}
	}
	res.Model = &tensor.Kruskal{Lambda: lambda, Factors: factors}
	return res, nil
}

// TuckerResultN is the outcome of an N-way Tucker run.
type TuckerResultN struct {
	Model     *tensor.TuckerModel
	Iters     int
	CoreNorms []float64
	Converged bool
}

// TuckerALSN runs N-way Tucker-ALS with the DRI plan. core gives the
// desired core shape, one entry per mode. Orders 3 and 4 are supported.
func TuckerALSN(c *mr.Cluster, x *tensor.Tensor, core []int, opt Options) (*TuckerResultN, error) {
	order := x.Order()
	if len(core) != order {
		return nil, fmt.Errorf("core: TuckerALSN wants %d core dims, got %d", order, len(core))
	}
	for m, p := range core {
		if p <= 0 || int64(p) > x.Dim(m) {
			return nil, fmt.Errorf("core: invalid core dimension %d for mode %d", p, m)
		}
	}
	opt = opt.withDefaults()
	defer installBackend(c, opt)()
	s, err := StageN(c, tmpName(c, "tuckerN", "X"), x)
	if err != nil {
		return nil, err
	}
	defer s.cleanupN([]string{s.Name})
	s.SetCodec(opt.Codec)
	tr := c.Tracer()
	defer tr.End(tr.Begin("run", "tuckerN-als/DRI"))

	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]*matrix.Matrix, order)
	for m := 0; m < order; m++ {
		q, _ := matrix.QR(matrix.Random(int(s.Dims[m]), core[m], rng))
		factors[m] = q
	}
	res := &TuckerResultN{}
	prevNorm := 0.0
	var lastY []NYEntry
	lastModes := otherModesN(order, order-1)
	for it := 0; it < opt.MaxIters; it++ {
		iterSpan := tr.Begin("iter", fmt.Sprintf("iter%02d", it))
		for n := 0; n < order; n++ {
			modeSpan := tr.Begin("mode", fmt.Sprintf("mode%d", n))
			modes := otherModesN(order, n)
			others := make([]*matrix.Matrix, len(modes))
			cols := 1
			for i, m := range modes {
				others[i] = factors[m]
				cols *= core[m]
			}
			ys, err := s.contractN(n, others, false)
			if err != nil {
				return nil, err
			}
			// Matricize 𝒴 with the multiplied modes flattened.
			ym := matrix.New(int(s.Dims[n]), cols)
			for _, e := range ys {
				col := 0
				for i := range modes {
					col = col*core[modes[i]] + int(e.Cols[i])
				}
				ym.Set(int(e.I), col, e.Val)
			}
			factors[n] = matrix.LeadingLeftSingularVectors(ym, core[n])
			if n == order-1 {
				lastY = ys
			} else {
				mr.Recycle(ys)
			}
			tr.End(modeSpan)
		}
		// 𝒢 ← 𝒴 ×_N A⁽ᴺ⁾ᵀ from the final mode's contraction.
		coreDims := make([]int64, order)
		for m := range coreDims {
			coreDims[m] = int64(core[m])
		}
		g := tensor.NewDense(coreDims...)
		last := factors[order-1]
		coords := make([]int64, order)
		for _, e := range lastY {
			for i, m := range lastModes {
				coords[m] = int64(e.Cols[i])
			}
			for r := 0; r < core[order-1]; r++ {
				cv := last.At(int(e.I), r)
				if cv == 0 {
					continue
				}
				coords[order-1] = int64(r)
				g.Add(e.Val*cv, coords...)
			}
		}
		mr.Recycle(lastY)
		norm := g.Norm()
		res.CoreNorms = append(res.CoreNorms, norm)
		res.Iters = it + 1
		res.Model = &tensor.TuckerModel{Core: g, Factors: append([]*matrix.Matrix(nil), factors...)}
		tr.End(iterSpan)
		if it > 0 && norm-prevNorm < opt.Tol*math.Max(1, prevNorm) {
			res.Converged = true
			break
		}
		prevNorm = norm
	}
	return res, nil
}
