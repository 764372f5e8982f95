package core

import (
	"fmt"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
)

// tmpName names a temporary DFS file. The sequence number comes from
// the cluster, not a process global, so the file names — and with them
// the job names and the exported traces — of a run on a fresh cluster
// are reproducible no matter what ran earlier in the process.
func tmpName(c *mr.Cluster, base, kind string) string {
	return fmt.Sprintf("%s.tmp%d.%s", base, c.NextTmp(), kind)
}

// cleanup deletes temporary DFS files, ignoring absent ones.
func (s *Staged) cleanup(files []string) {
	for _, f := range files {
		if s.cluster.FS().Exists(f) {
			// Exists-guarded, so ErrNotExist (Delete's only error) is
			// impossible; this defer-path has no caller to report to.
			//haten2:allow errcheck-io best-effort temp cleanup, Delete can only return ErrNotExist and the file was just checked
			_ = s.cluster.FS().Delete(f)
		}
	}
}

// TuckerContract computes the Tucker-ALS bottleneck
//
//	𝒴 ← 𝒳 ×_{m1} U1ᵀ ×_{m2} U2ᵀ
//
// for the factor update of mode n (lines 3, 5, 7 of Algorithm 2), where
// m1 < m2 are the other two modes and U1 ∈ ℝ^{I_{m1}×Q1}, U2 ∈ ℝ^{I_{m2}×Q2}
// are their current factors. The entries of the I_n×Q1×Q2 result are
// returned; the plan (and therefore the job count and intermediate data)
// is chosen by the variant.
func TuckerContract(s *Staged, n int, u1, u2 *matrix.Matrix, v Variant) ([]YEntry, error) {
	m1, m2 := otherModes(n)
	if int64(u1.Rows) != s.Dims[m1] || int64(u2.Rows) != s.Dims[m2] {
		return nil, fmt.Errorf("core: TuckerContract factor shapes %dx%d/%dx%d do not match tensor dims %v (mode %d)",
			u1.Rows, u1.Cols, u2.Rows, u2.Cols, s.Dims, n)
	}
	switch v {
	case Naive:
		return s.tuckerNaive(n, u1, u2)
	case DNN:
		return s.tuckerDNN(n, u1, u2)
	case DRN:
		return s.tuckerDRN(n, u1, u2)
	case DRI:
		return s.tuckerDRI(n, u1, u2)
	}
	return nil, fmt.Errorf("core: unknown variant %v", v)
}

// ParafacContract computes the PARAFAC-ALS bottleneck
//
//	𝒴 ← 𝒳₍ₙ₎ (U2 ⊙ U1)
//
// for the factor update of mode n (lines 3, 5, 7 of Algorithm 1), where
// U1, U2 are the factors of the other two modes (both with R columns;
// U2 is the later mode, matching the Khatri-Rao order C⊙B for n=0).
// The I_n×R result is returned as a dense matrix.
func ParafacContract(s *Staged, n int, u1, u2 *matrix.Matrix, v Variant) (*matrix.Matrix, error) {
	m1, m2 := otherModes(n)
	if int64(u1.Rows) != s.Dims[m1] || int64(u2.Rows) != s.Dims[m2] {
		return nil, fmt.Errorf("core: ParafacContract factor shapes %dx%d/%dx%d do not match tensor dims %v (mode %d)",
			u1.Rows, u1.Cols, u2.Rows, u2.Cols, s.Dims, n)
	}
	if u1.Cols != u2.Cols {
		return nil, fmt.Errorf("core: ParafacContract rank mismatch %d vs %d", u1.Cols, u2.Cols)
	}
	var ys []YEntry
	var err error
	switch v {
	case Naive:
		ys, err = s.parafacNaive(n, u1, u2)
	case DNN:
		ys, err = s.parafacDNN(n, u1, u2)
	case DRN:
		ys, err = s.parafacDRN(n, u1, u2)
	case DRI:
		ys, err = s.parafacDRI(n, u1, u2)
	default:
		return nil, fmt.Errorf("core: unknown variant %v", v)
	}
	if err != nil {
		return nil, err
	}
	m := matrix.New(int(s.Dims[n]), u1.Cols)
	for _, y := range ys {
		m.Set(int(y.I), int(y.R), m.At(int(y.I), int(y.R))+y.Val)
	}
	mr.Recycle(ys)
	return m, nil
}

// --- Tucker plans -----------------------------------------------------

// tuckerNaive: Algorithm 3. Q1 broadcast jobs build 𝒯 = 𝒳 ×_{m1} U1ᵀ one
// column at a time, then Q2 broadcast jobs contract 𝒯 with U2.
func (s *Staged) tuckerNaive(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "tucker-naive"))
	m1, m2 := otherModes(n)
	fibers1, err := s.fiberKeys(m1)
	if err != nil {
		return nil, err
	}
	vecFile := tmpName(s.cluster, s.Name, "vec")
	var tFiles []string
	var tEntries []Entry
	defer func() { s.cleanup(append(tFiles, vecFile)) }()
	for q := 0; q < u1.Cols; q++ {
		if err := stageColumn(s.cluster, vecFile, u1, q); err != nil {
			return nil, err
		}
		tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", q))
		tFiles = append(tFiles, tf)
		out, err := naiveContract(s.cluster, s.codec, []string{s.Name}, s.Dims, m1, vecFile, int64(u1.Rows), int64(q), fibers1, tf)
		if err != nil {
			return nil, err
		}
		tEntries = append(tEntries, out...)
		mr.Recycle(out)
	}
	// Fibers of 𝒯 for the second round of broadcasts.
	tDims := s.Dims
	tDims[m1] = int64(u1.Cols)
	a, b := otherModes(m2)
	seen := make(map[[2]int64]struct{})
	var fibers2 [][2]int64
	for _, e := range tEntries {
		k := [2]int64{e.Idx[a], e.Idx[b]}
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			fibers2 = append(fibers2, k)
		}
	}
	var ys []YEntry
	var yFiles []string
	defer func() { s.cleanup(yFiles) }()
	for r := 0; r < u2.Cols; r++ {
		if err := stageColumn(s.cluster, vecFile, u2, r); err != nil {
			return nil, err
		}
		yf := tmpName(s.cluster, s.Name, fmt.Sprintf("Y%d", r))
		yFiles = append(yFiles, yf)
		out, err := naiveContract(s.cluster, s.codec, tFiles, tDims, m2, vecFile, int64(u2.Rows), int64(r), fibers2, yf)
		if err != nil {
			return nil, err
		}
		for _, e := range out {
			ys = append(ys, YEntry{I: e.Idx[n], Q: int32(e.Idx[m1]), R: int32(e.Idx[m2]), Val: e.Val})
		}
		mr.Recycle(out)
	}
	return ys, nil
}

// tuckerDNN: Algorithm 5. Q1 Hadamard jobs + one Collapse build 𝒯, then
// Q2 Hadamard jobs + one Collapse build 𝒴: Q+R+2 jobs, nnz·Q1·Q2 max
// intermediate (the second Collapse input).
func (s *Staged) tuckerDNN(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "tucker-dnn"))
	m1, m2 := otherModes(n)
	vecFile := tmpName(s.cluster, s.Name, "vec")
	var hFiles []string
	defer func() { s.cleanup(append(hFiles, vecFile)) }()
	for q := 0; q < u1.Cols; q++ {
		if err := stageColumn(s.cluster, vecFile, u1, q); err != nil {
			return nil, err
		}
		hf := tmpName(s.cluster, s.Name, fmt.Sprintf("H%d", q))
		hFiles = append(hFiles, hf)
		if err := hadamardVec(s.cluster, s.codec, s.Name, m1, int32(q), vecFile, false, hf); err != nil {
			return nil, err
		}
	}
	tFile := tmpName(s.cluster, s.Name, "T")
	hFiles = append(hFiles, tFile)
	tOut, err := collapse(s.cluster, s.codec, hFiles[:len(hFiles)-1], m1, tFile)
	if err != nil {
		return nil, err
	}
	mr.Recycle(tOut) // 𝒯 is read back from tFile
	var h2Files []string
	defer func() { s.cleanup(h2Files) }()
	for r := 0; r < u2.Cols; r++ {
		if err := stageColumn(s.cluster, vecFile, u2, r); err != nil {
			return nil, err
		}
		hf := tmpName(s.cluster, s.Name, fmt.Sprintf("H2_%d", r))
		h2Files = append(h2Files, hf)
		if err := hadamardVec(s.cluster, s.codec, tFile, m2, int32(r), vecFile, false, hf); err != nil {
			return nil, err
		}
	}
	yFile := tmpName(s.cluster, s.Name, "Y")
	h2Files = append(h2Files, yFile)
	out, err := collapse(s.cluster, s.codec, h2Files[:len(h2Files)-1], m2, yFile)
	if err != nil {
		return nil, err
	}
	ys := make([]YEntry, len(out))
	for i, e := range out {
		ys[i] = YEntry{I: e.Idx[n], Q: int32(e.Idx[m1]), R: int32(e.Idx[m2]), Val: e.Val}
	}
	mr.Recycle(out)
	return ys, nil
}

// tuckerDRN: Algorithm 7. Q1+Q2 independent Hadamard jobs build 𝒯′ and
// 𝒯″ directly from 𝒳 (no sequential dependency), then one CrossMerge:
// Q+R+1 jobs, nnz·(Q1+Q2) max intermediate.
func (s *Staged) tuckerDRN(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "tucker-drn"))
	t1Files, t2Files, vecFile, err := s.drnHadamards(n, u1, u2)
	defer func() {
		s.cleanup(t1Files)
		s.cleanup(t2Files)
		s.cleanup([]string{vecFile})
	}()
	if err != nil {
		return nil, err
	}
	mg := tr.Begin("stage", "cross-merge")
	defer tr.End(mg)
	return crossMerge(s.cluster, s.codec, t1Files, t2Files, n, u1.Cols, u2.Cols)
}

// tuckerDRI: Algorithm 9. One IMHP job + one CrossMerge: 2 jobs.
func (s *Staged) tuckerDRI(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "tucker-dri"))
	t1File, t2File, extra, err := s.driIMHP(n, u1, u2)
	defer func() { s.cleanup(append(extra, t1File, t2File)) }()
	if err != nil {
		return nil, err
	}
	mg := tr.Begin("stage", "cross-merge")
	defer tr.End(mg)
	return crossMerge(s.cluster, s.codec, []string{t1File}, []string{t2File}, n, u1.Cols, u2.Cols)
}

// --- PARAFAC plans ----------------------------------------------------

// parafacNaive: Algorithm 4. Per component r: one broadcast job for
// 𝒯ᵣ = 𝒳 ×̄_{m1} b_r and one for 𝒴ᵣ = 𝒯ᵣ ×̄_{m2} c_r: 2R jobs.
func (s *Staged) parafacNaive(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "parafac-naive"))
	m1, m2 := otherModes(n)
	fibers1, err := s.fiberKeys(m1)
	if err != nil {
		return nil, err
	}
	tDims := s.Dims
	tDims[m1] = int64(u1.Cols)
	vecFile := tmpName(s.cluster, s.Name, "vec")
	var tmp []string
	defer func() { s.cleanup(append(tmp, vecFile)) }()
	var ys []YEntry
	for r := 0; r < u1.Cols; r++ {
		if err := stageColumn(s.cluster, vecFile, u1, r); err != nil {
			return nil, err
		}
		tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", r))
		tmp = append(tmp, tf)
		tOut, err := naiveContract(s.cluster, s.codec, []string{s.Name}, s.Dims, m1, vecFile, int64(u1.Rows), int64(r), fibers1, tf)
		if err != nil {
			return nil, err
		}
		a, b := otherModes(m2)
		seen := make(map[[2]int64]struct{})
		var fibers2 [][2]int64
		for _, e := range tOut {
			k := [2]int64{e.Idx[a], e.Idx[b]}
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				fibers2 = append(fibers2, k)
			}
		}
		if err := stageColumn(s.cluster, vecFile, u2, r); err != nil {
			return nil, err
		}
		yf := tmpName(s.cluster, s.Name, fmt.Sprintf("Y%d", r))
		tmp = append(tmp, yf)
		yOut, err := naiveContract(s.cluster, s.codec, []string{tf}, tDims, m2, vecFile, int64(u2.Rows), int64(r), fibers2, yf)
		if err != nil {
			return nil, err
		}
		mr.Recycle(tOut)
		for _, e := range yOut {
			ys = append(ys, YEntry{I: e.Idx[n], Q: int32(r), R: int32(r), Val: e.Val})
		}
		mr.Recycle(yOut)
	}
	return ys, nil
}

// parafacDNN: Algorithm 6. Per component r: Hadamard + Collapse with b_r,
// then Hadamard + Collapse with c_r: 4R jobs, nnz+J max intermediate.
func (s *Staged) parafacDNN(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "parafac-dnn"))
	m1, m2 := otherModes(n)
	vecFile := tmpName(s.cluster, s.Name, "vec")
	var tmp []string
	defer func() { s.cleanup(append(tmp, vecFile)) }()
	var ys []YEntry
	for r := 0; r < u1.Cols; r++ {
		if err := stageColumn(s.cluster, vecFile, u1, r); err != nil {
			return nil, err
		}
		hf := tmpName(s.cluster, s.Name, fmt.Sprintf("H%d", r))
		tmp = append(tmp, hf)
		if err := hadamardVec(s.cluster, s.codec, s.Name, m1, int32(r), vecFile, false, hf); err != nil {
			return nil, err
		}
		tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", r))
		tmp = append(tmp, tf)
		tOut, err := collapse(s.cluster, s.codec, []string{hf}, m1, tf)
		if err != nil {
			return nil, err
		}
		mr.Recycle(tOut) // 𝒯ᵣ is read back from tf
		if err := stageColumn(s.cluster, vecFile, u2, r); err != nil {
			return nil, err
		}
		h2 := tmpName(s.cluster, s.Name, fmt.Sprintf("H2_%d", r))
		tmp = append(tmp, h2)
		if err := hadamardVec(s.cluster, s.codec, tf, m2, int32(r), vecFile, false, h2); err != nil {
			return nil, err
		}
		yf := tmpName(s.cluster, s.Name, fmt.Sprintf("Y%d", r))
		tmp = append(tmp, yf)
		out, err := collapse(s.cluster, s.codec, []string{h2}, m2, yf)
		if err != nil {
			return nil, err
		}
		for _, e := range out {
			ys = append(ys, YEntry{I: e.Idx[n], Q: int32(r), R: int32(r), Val: e.Val})
		}
		mr.Recycle(out)
	}
	return ys, nil
}

// parafacDRN: Algorithm 8. 2R independent Hadamard jobs build ℱ′ and 𝒯″
// from 𝒳, then one PairwiseMerge: 2R+1 jobs, 2·nnz·R max intermediate.
func (s *Staged) parafacDRN(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "parafac-drn"))
	t1Files, t2Files, vecFile, err := s.drnHadamards(n, u1, u2)
	defer func() {
		s.cleanup(t1Files)
		s.cleanup(t2Files)
		s.cleanup([]string{vecFile})
	}()
	if err != nil {
		return nil, err
	}
	mg := tr.Begin("stage", "pairwise-merge")
	defer tr.End(mg)
	return pairwiseMerge(s.cluster, s.codec, t1Files, t2Files, n)
}

// parafacDRI: Algorithm 10. One IMHP job + one PairwiseMerge: 2 jobs.
func (s *Staged) parafacDRI(n int, u1, u2 *matrix.Matrix) ([]YEntry, error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("plan", "parafac-dri"))
	t1File, t2File, extra, err := s.driIMHP(n, u1, u2)
	defer func() { s.cleanup(append(extra, t1File, t2File)) }()
	if err != nil {
		return nil, err
	}
	mg := tr.Begin("stage", "pairwise-merge")
	defer tr.End(mg)
	return pairwiseMerge(s.cluster, s.codec, []string{t1File}, []string{t2File}, n)
}

// --- shared plan fragments ---------------------------------------------

// drnHadamards runs the DRN variants' independent per-column Hadamard
// jobs: 𝒯′_q = 𝒳 ∗̄_{m1} u1_q for every column of U1 and
// 𝒯″_r = bin(𝒳) ∗̄_{m2} u2_r for every column of U2.
func (s *Staged) drnHadamards(n int, u1, u2 *matrix.Matrix) (t1Files, t2Files []string, vecFile string, err error) {
	tr := s.cluster.Tracer()
	defer tr.End(tr.Begin("stage", "hadamards"))
	m1, m2 := otherModes(n)
	vecFile = tmpName(s.cluster, s.Name, "vec")
	for q := 0; q < u1.Cols; q++ {
		if err = stageColumn(s.cluster, vecFile, u1, q); err != nil {
			return
		}
		tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T1_%d", q))
		t1Files = append(t1Files, tf)
		if err = hadamardVec(s.cluster, s.codec, s.Name, m1, int32(q), vecFile, false, tf); err != nil {
			return
		}
	}
	for r := 0; r < u2.Cols; r++ {
		if err = stageColumn(s.cluster, vecFile, u2, r); err != nil {
			return
		}
		tf := tmpName(s.cluster, s.Name, fmt.Sprintf("T2_%d", r))
		t2Files = append(t2Files, tf)
		if err = hadamardVec(s.cluster, s.codec, s.Name, m2, int32(r), vecFile, true, tf); err != nil {
			return
		}
	}
	return
}

// driIMHP stages both factor matrices and runs the single integrated
// IMHP job, returning the 𝒯′ and 𝒯″ files.
func (s *Staged) driIMHP(n int, u1, u2 *matrix.Matrix) (t1File, t2File string, extra []string, err error) {
	tr := s.cluster.Tracer()
	m1, m2 := otherModes(n)
	sf := tr.Begin("stage", "stage-factors")
	bFile := tmpName(s.cluster, s.Name, "B")
	cFile := tmpName(s.cluster, s.Name, "C")
	extra = []string{bFile, cFile}
	if err = stageMatrix(s.cluster, bFile, u1); err != nil {
		tr.End(sf)
		return
	}
	if err = stageMatrix(s.cluster, cFile, u2); err != nil {
		tr.End(sf)
		return
	}
	tr.End(sf)
	im := tr.Begin("stage", "imhp")
	defer tr.End(im)
	t1File = tmpName(s.cluster, s.Name, "T1")
	t2File = tmpName(s.cluster, s.Name, "T2")
	err = imhp(s.cluster, s.codec, s.Name, m1, bFile, m2, cFile, t1File, t2File)
	return
}
