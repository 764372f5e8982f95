package core

// N-way support. The paper defines PARAFAC, Tucker, and all five
// operator definitions for N-way tensors (§II, Definitions 1–5) but
// spells out the MapReduce jobs for the 3-way case only. This file
// generalizes the recommended DRI plan (IMHP + merge) to order-4
// tensors — the order of the paper's motivating example, (source-ip,
// target-ip, port-number, timestamp) intrusion logs. The structure
// extends mechanically to higher orders; 4 is the fixed record width
// used for shuffle keys and coordinate matching.

import (
	"fmt"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/mr"
	"github.com/haten2/haten2/internal/tensor"
)

// maxOrder is the largest tensor order the distributed N-way plan
// supports.
const maxOrder = 4

// NEntry is one nonzero of an order-N tensor (N ≤ maxOrder) staged on
// the DFS; only the first N coordinates are meaningful.
type NEntry struct {
	Idx [maxOrder]int64
	Val float64
}

// NHEntry is an N-way Hadamard intermediate: the original coordinate
// plus the factor column index and which factor (side) produced it.
type NHEntry struct {
	Idx  [maxOrder]int64
	Side int8 // 0-based position among the N-1 multiplied modes
	Col  int32
	Val  float64
}

// NYEntry is one entry of an N-way contraction result: the mode-n
// coordinate plus one column index per multiplied mode.
type NYEntry struct {
	I    int64
	Cols [maxOrder - 1]int32
	Val  float64
}

const (
	nEntryBytes  = maxOrder*8 + 8
	nhEntryBytes = maxOrder*8 + 1 + 4 + 8
	nyEntryBytes = 8 + (maxOrder-1)*4 + 8
)

// Hoisted size callbacks, shared by every N-way job (see the 3-way
// counterparts in records.go).
func nEntrySize(NEntry) int64   { return nEntryBytes }
func nhEntrySize(NHEntry) int64 { return nhEntryBytes }
func nyEntrySize(NYEntry) int64 { return nyEntryBytes }

// StagedN is an order-N tensor staged on a cluster's DFS.
type StagedN struct {
	Name    string
	Dims    []int64
	NNZ     int64
	cluster *mr.Cluster
	// codec selects the shuffle wire format of the jobs run against this
	// tensor (CodecColumnar unless overridden via SetCodec).
	codec Codec
}

// SetCodec selects the shuffle codec for subsequent jobs. The codec
// only changes byte accounting, never results.
func (s *StagedN) SetCodec(c Codec) { s.codec = c }

// StageN writes a coalesced tensor of order 3 or 4 to the cluster DFS.
func StageN(c *mr.Cluster, name string, x *tensor.Tensor) (*StagedN, error) {
	o := x.Order()
	if o < 3 || o > maxOrder {
		return nil, fmt.Errorf("core: StageN supports orders 3..%d, got %d", maxOrder, o)
	}
	x.Coalesce()
	entries := make([]NEntry, x.NNZ())
	for p := range entries {
		idx := x.Index(p)
		var e NEntry
		copy(e.Idx[:], idx)
		e.Val = x.Value(p)
		entries[p] = e
	}
	if err := mr.WriteFile(c, name, entries, nEntrySize); err != nil {
		return nil, err
	}
	return &StagedN{Name: name, Dims: x.Dims(), NNZ: int64(x.NNZ()), cluster: c}, nil
}

// nsval is the shuffle value of the N-way jobs.
type nsval struct {
	isMat bool
	idx   [maxOrder]int64
	col   int32
	val   float64
}

func nsvalSize(_ [2]int64, v nsval) int64 {
	if v.isMat {
		return matEntryBytes
	}
	return nhEntryBytes
}

// imhpN is the N-way IMHP job: in a single pass over 𝒳 it computes
// 𝒯⁽⁰⁾ = 𝒳 ∗_{m₀} U₀ᵀ and 𝒯⁽ˢ⁾ = bin(𝒳) ∗_{mₛ} Uₛᵀ for s ≥ 1, where
// modes lists the N−1 modes being multiplied and matFiles their staged
// factors. Results are written per side to outFiles.
func imhpN(c *mr.Cluster, codec Codec, xFile string, modes []int, matFiles, outFiles []string) error {
	inputs := []mr.Input[[2]int64, nsval]{
		mr.MapInput(xFile, func(e NEntry, emit func([2]int64, nsval)) {
			for s, m := range modes {
				v := e.Val
				if s > 0 {
					v = 1 // bin(𝒳) for all but the first side
				}
				emit([2]int64{int64(s), e.Idx[m]}, nsval{idx: e.Idx, val: v})
			}
		}),
	}
	for s, f := range matFiles {
		side := int64(s)
		inputs = append(inputs, mr.MapInput(f, func(cell MatEntry, emit func([2]int64, nsval)) {
			emit([2]int64{side, cell.Row}, nsval{isMat: true, col: cell.Col, val: cell.Val})
		}))
	}
	job := mr.Job[[2]int64, nsval, NHEntry]{
		Name:   fmt.Sprintf("imhpN(%s)", xFile),
		Inputs: inputs,
		Reduce: func(key [2]int64, vals []nsval, emit func(NHEntry)) {
			side := int8(key[0])
			j := joinPool.Get().(*joinScratch)
			defer joinPool.Put(j)
			row := j.row[:0]
			for _, v := range vals {
				if v.isMat {
					row = append(row, MatEntry{Col: v.col, Val: v.val})
				}
			}
			j.row = row
			for _, v := range vals {
				if v.isMat {
					continue
				}
				for _, cell := range row {
					if cell.Val == 0 {
						continue
					}
					emit(NHEntry{Idx: v.idx, Side: side, Col: cell.Col, Val: v.val * cell.Val})
				}
			}
		},
		Partition: mr.HashPair,
		OutSize:   nhEntrySize,
	}
	nsvalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	if err != nil {
		return err
	}
	// MultipleOutputs: one file per side. As in the 3-way imhp, count
	// each side first and fill exactly sized pooled slabs that the DFS
	// then owns.
	counts := make([]int, len(modes))
	for _, h := range out {
		counts[h.Side]++
	}
	bySide := make([][]NHEntry, len(modes))
	for s, n := range counts {
		bySide[s] = mr.Acquire[NHEntry](n)
	}
	for _, h := range out {
		bySide[h.Side] = append(bySide[h.Side], h)
	}
	mr.Recycle(out)
	for s, f := range outFiles {
		if err := mr.WriteFileOwned(c, f, bySide[s], nhEntrySize); err != nil {
			for _, rest := range bySide[s+1:] {
				mr.Recycle(rest) // never reaches its write on this path
			}
			return err
		}
	}
	return nil
}

// crossMergeN is the N-way CrossMerge (Definition 3): reducers receive
// every side's Hadamard records for one mode-n slice and cross all
// column combinations:
// 𝒴(i, q₀…q_{N-2}) = Σ_idx Π_s 𝒯⁽ˢ⁾(idx, q_s).
// dims holds each side's factor column count.
func crossMergeN(c *mr.Cluster, codec Codec, files []string, n int, dims []int) ([]NYEntry, error) {
	// Files arrive one per side; the side index is packed into the high
	// bits of the column (columns are ≤ 80 in the paper, far below the
	// 16-bit boundary).
	inputs := make([]mr.Input[[2]int64, nsval], len(files))
	for s := range files {
		side := int32(s)
		inputs[s] = mr.MapInput(files[s], func(h NHEntry, emit func([2]int64, nsval)) {
			emit([2]int64{h.Idx[n], 0}, nsval{idx: h.Idx, col: side<<16 | h.Col, val: h.Val})
		})
	}
	job := mr.Job[[2]int64, nsval, NYEntry]{
		Name:      fmt.Sprintf("crossMergeN(mode=%d)", n),
		Inputs:    inputs,
		Reduce:    crossMergeNReduce(dims),
		Partition: mr.HashPair,
		OutSize:   nyEntrySize,
	}
	nsvalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// crossMergeNReduce returns the N-way CrossMerge reducer for sides with
// the given column counts. Records are joined on their original
// coordinate in the join scratch, one list per (coordinate, side), and
// every coordinate with records on all sides adds the products of all
// column combinations into a dense accumulator (cells in row-major
// order of dims). Coordinates are walked in first-seen order, lists in
// input order and cells emitted in first-touch order, so summation and
// emission order are identical on every run.
func crossMergeNReduce(dims []int) func(key [2]int64, vals []nsval, emit func(NYEntry)) {
	sides := len(dims)
	cells := 1
	for _, d := range dims {
		cells *= d
	}
	return func(key [2]int64, vals []nsval, emit func(NYEntry)) {
		j := joinPool.Get().(*joinScratch)
		defer joinPool.Put(j)
		j.reset()
		for _, v := range vals {
			j.rec = append(j.rec, j.slot(v.idx)*int32(sides)+v.col>>16)
		}
		j.layout(sides * j.slots())
		for i, v := range vals {
			j.put(j.rec[i], v.col&0xffff, v.val)
		}
		j.accumulator(cells)
		for s := 0; s < j.slots(); s++ {
			base := s * sides
			complete := true
			for l := base; l < base+sides; l++ {
				if j.start[l] == j.start[l+1] {
					complete = false
					break
				}
			}
			if complete {
				j.crossWalk(base, dims, 0, 0, 1)
			}
		}
		for _, cell := range j.touched {
			if v := j.acc[cell]; v != 0 {
				var cols [maxOrder - 1]int32
				for s, c := sides-1, int(cell); s >= 0; s-- {
					cols[s] = int32(c % dims[s])
					c /= dims[s]
				}
				emit(NYEntry{I: key[0], Cols: cols, Val: v})
			}
		}
	}
}

// crossWalk adds, for every combination of one record per side from
// side s on, the running product prod times the records' values into
// the accumulator cell that cell (the row-major index of the columns
// chosen before s) extends to. Sides are lists base…base+len(dims)-1.
func (j *joinScratch) crossWalk(base int, dims []int, s, cell int, prod float64) {
	if s == len(dims) {
		j.add(cell, prod)
		return
	}
	cols, vals := j.list(base + s)
	for i := range cols {
		j.crossWalk(base, dims, s+1, cell*dims[s]+int(cols[i]), prod*vals[i])
	}
}

// pairwiseMergeN is the N-way PairwiseMerge (Definition 4): all sides
// share the column index r, and reducers multiply one record per side
// per coordinate: 𝒴(i, r) = Σ_idx Π_s 𝒯⁽ˢ⁾(idx, r).
func pairwiseMergeN(c *mr.Cluster, codec Codec, files []string, n, sides int) ([]NYEntry, error) {
	inputs := make([]mr.Input[[2]int64, nsval], len(files))
	for s := range files {
		side := int8(s)
		inputs[s] = mr.MapInput(files[s], func(h NHEntry, emit func([2]int64, nsval)) {
			emit([2]int64{h.Idx[n], int64(h.Col)}, nsval{idx: h.Idx, col: int32(side), val: h.Val})
		})
	}
	job := mr.Job[[2]int64, nsval, NYEntry]{
		Name:      fmt.Sprintf("pairwiseMergeN(mode=%d)", n),
		Inputs:    inputs,
		Reduce:    pairwiseMergeNReduce(sides),
		Partition: mr.HashPair,
		OutSize:   nyEntrySize,
	}
	nsvalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// pairwiseMergeNReduce returns the N-way PairwiseMerge reducer. Each
// coordinate's per-side sums live in a flat slab of the join scratch,
// sides floats per slot; coordinates are summed in first-seen order
// (input order is fixed by the engine), keeping the floating-point
// total identical on every run.
func pairwiseMergeNReduce(sides int) func(key [2]int64, vals []nsval, emit func(NYEntry)) {
	return func(key [2]int64, vals []nsval, emit func(NYEntry)) {
		j := joinPool.Get().(*joinScratch)
		defer joinPool.Put(j)
		j.reset()
		prod := j.slab[:0]
		for _, v := range vals {
			at := int(j.slot(v.idx)) * sides
			if at == len(prod) {
				for range sides {
					prod = append(prod, 0)
				}
			}
			prod[at+int(v.col)] += v.val
		}
		j.slab = prod
		var sum float64
		for at := 0; at < len(prod); at += sides {
			term := 1.0
			for _, p := range prod[at : at+sides] {
				term *= p
			}
			sum += term
		}
		if sum == 0 {
			return
		}
		var cols [maxOrder - 1]int32
		for s := 0; s < sides; s++ {
			cols[s] = int32(key[1])
		}
		emit(NYEntry{I: key[0], Cols: cols, Val: sum})
	}
}

// otherModesN returns the modes ≠ n in ascending order.
func otherModesN(order, n int) []int {
	out := make([]int, 0, order-1)
	for m := 0; m < order; m++ {
		if m != n {
			out = append(out, m)
		}
	}
	return out
}

// contractN runs the DRI plan (IMHP + merge) for one mode update on an
// N-way tensor. factors lists one matrix per multiplied mode, ordered
// by ascending mode; pairwise selects PairwiseMerge (PARAFAC) over
// CrossMerge (Tucker).
func (s *StagedN) contractN(n int, factors []*matrix.Matrix, pairwise bool) ([]NYEntry, error) {
	modes := otherModesN(len(s.Dims), n)
	if len(factors) != len(modes) {
		return nil, fmt.Errorf("core: contractN wants %d factors, got %d", len(modes), len(factors))
	}
	var matFiles, outFiles []string
	var tmp []string
	defer func() { s.cleanupN(tmp) }()
	for i, f := range factors {
		if int64(f.Rows) != s.Dims[modes[i]] {
			return nil, fmt.Errorf("core: contractN factor %d has %d rows, mode %d has size %d", i, f.Rows, modes[i], s.Dims[modes[i]])
		}
		if f.Cols >= 1<<16 {
			// The merge jobs pack the side index into the high bits of
			// the column (the paper's ranks are ≤ 80).
			return nil, fmt.Errorf("core: contractN supports at most %d columns per factor, got %d", 1<<16-1, f.Cols)
		}
		mf := tmpName(s.cluster, s.Name, fmt.Sprintf("U%d", i))
		if err := stageMatrix(s.cluster, mf, f); err != nil {
			return nil, err
		}
		matFiles = append(matFiles, mf)
		of := tmpName(s.cluster, s.Name, fmt.Sprintf("T%d", i))
		outFiles = append(outFiles, of)
		tmp = append(tmp, mf, of)
	}
	if err := imhpN(s.cluster, s.codec, s.Name, modes, matFiles, outFiles); err != nil {
		return nil, err
	}
	if pairwise {
		return pairwiseMergeN(s.cluster, s.codec, outFiles, n, len(modes))
	}
	dims := make([]int, len(factors))
	for i, f := range factors {
		dims[i] = f.Cols
	}
	return crossMergeN(s.cluster, s.codec, outFiles, n, dims)
}

func (s *StagedN) cleanupN(files []string) {
	for _, f := range files {
		if s.cluster.FS().Exists(f) {
			// Exists-guarded, so ErrNotExist (Delete's only error) is
			// impossible; this defer-path has no caller to report to.
			//haten2:allow errcheck-io best-effort temp cleanup, Delete can only return ErrNotExist and the file was just checked
			_ = s.cluster.FS().Delete(f)
		}
	}
}
