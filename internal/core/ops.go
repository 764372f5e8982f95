package core

import (
	"fmt"

	"github.com/haten2/haten2/internal/mr"
)

// shuffle size of one sval, by provenance: tensor-derived records carry
// a full coordinate (paper's ⟨i,j,k,v⟩ tuples); matrix cells are small.
func svalSize(_ [3]int64, v sval) int64 {
	if v.tag == tagMat {
		return matEntryBytes
	}
	return hEntryBytes
}

// naiveContract is the HaTen2-Naive building block: one n-mode vector
// product 𝒳 ×̄_m v as a single broadcast-style MapReduce job (the inner
// loop of Algorithms 3 and 4). Tensor entries are shuffled on their
// fiber key (the coordinates of the modes ≠ m), and the factor vector is
// copied to every fiber key — the paper's nnz(𝒳)+IJK intermediate-data
// blow-up. The simulator materializes vector copies only for fibers that
// actually exist and charges the remainder via ExtraShuffleRecords, so
// cost accounting (and resource exhaustion) matches the faithful plan.
//
// The result entries are written to outFile with outIdx in mode m's
// position, so Q single-column results assemble into the 3-way
// intermediate 𝒯 without a separate job.
func naiveContract(c *mr.Cluster, codec Codec, inFiles []string, dims [3]int64, m int, vecFile string, vecLen int64, outIdx int64, fibers [][2]int64, outFile string) ([]Entry, error) {
	m1, m2 := otherModes(m)
	// Faithful plan: the vector is copied to all dims[m1]·dims[m2] fiber
	// keys; we emit len(fibers)·vecLen of those copies for real.
	phantomKeys := dims[m1]*dims[m2] - int64(len(fibers))
	if phantomKeys < 0 {
		phantomKeys = 0
	}
	inputs := make([]mr.Input[[3]int64, sval], 0, len(inFiles)+1)
	for _, f := range inFiles {
		inputs = append(inputs, mr.MapInput(f, func(e Entry, emit func([3]int64, sval)) {
			emit([3]int64{e.Idx[m1], e.Idx[m2], 0}, sval{tag: tagTensor, idx: e.Idx, val: e.Val})
		}))
	}
	inputs = append(inputs, mr.MapInput(vecFile, func(cell MatEntry, emit func([3]int64, sval)) {
		for _, f := range fibers {
			emit([3]int64{f[0], f[1], 0}, sval{tag: tagMat, idx: [3]int64{cell.Row, 0, 0}, val: cell.Val})
		}
	}))
	job := mr.Job[[3]int64, sval, Entry]{
		Name:   fmt.Sprintf("naive-contract(mode=%d)", m),
		Inputs: inputs,
		Reduce: func(key [3]int64, vals []sval, emit func(Entry)) {
			// Inner product of the mode-m fiber with the vector.
			vec := make(map[int64]float64)
			for _, v := range vals {
				if v.tag == tagMat {
					vec[v.idx[0]] = v.val
				}
			}
			var sum float64
			for _, v := range vals {
				if v.tag == tagTensor {
					sum += v.val * vec[v.idx[m]]
				}
			}
			if sum == 0 {
				return
			}
			var idx [3]int64
			idx[m1], idx[m2], idx[m] = key[0], key[1], outIdx
			emit(Entry{Idx: idx, Val: sum})
		},
		Partition:           mr.HashTriple,
		OutSize:             entrySize,
		Output:              outFile,
		ExtraShuffleRecords: phantomKeys * vecLen,
		// Phantom copies are never materialized, so they have no real
		// encoding; they stay priced at the fixed MatEntry width under
		// both codecs (only genuinely encoded records get codec-priced).
		ExtraShuffleBytes: phantomKeys * vecLen * matEntryBytes,
	}
	svalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// hadamardVec is the decoupled multiplication step of Hadamard-and-Merge
// (§III-B2): 𝒳 ∗̄_m v as one job. Tensor entries are shuffled on their
// mode-m coordinate alone — nnz(𝒳)+len(v) intermediate records instead
// of the Naive broadcast — and each is multiplied by the matching vector
// element. With bin set, tensor values are replaced by 1 first
// (bin(𝒳) ∗̄_m v, the 𝒯″ side of Lemmas 1 and 2).
// The result is an order-4 HEntry file carrying colIdx as the new mode.
func hadamardVec(c *mr.Cluster, codec Codec, inFile string, m int, colIdx int32, vecFile string, bin bool, outFile string) error {
	job := mr.Job[[3]int64, sval, HEntry]{
		Name: fmt.Sprintf("hadamard(%s,mode=%d,col=%d)", inFile, m, colIdx),
		Inputs: []mr.Input[[3]int64, sval]{
			mr.MapInput(inFile, func(e Entry, emit func([3]int64, sval)) {
				v := e.Val
				if bin {
					v = 1
				}
				emit([3]int64{e.Idx[m], 0, 0}, sval{tag: tagTensor, idx: e.Idx, val: v})
			}),
			mr.MapInput(vecFile, func(cell MatEntry, emit func([3]int64, sval)) {
				emit([3]int64{cell.Row, 0, 0}, sval{tag: tagMat, val: cell.Val})
			}),
		},
		Reduce: func(key [3]int64, vals []sval, emit func(HEntry)) {
			var vec float64
			for _, v := range vals {
				if v.tag == tagMat {
					vec = v.val
				}
			}
			if vec == 0 {
				return
			}
			for _, v := range vals {
				if v.tag == tagTensor {
					emit(HEntry{Idx: v.idx, Col: colIdx, Val: v.val * vec})
				}
			}
		},
		Partition: mr.HashTriple,
		OutSize:   hEntrySize,
		Output:    outFile,
	}
	svalAccounting(&job, codec)
	// The records live on in outFile; the returned pooled copy goes
	// straight back.
	out, _, err := mr.Run(c, job)
	mr.Recycle(out)
	return err
}

// collapse is the merge step of Hadamard-and-Merge (Definition 2):
// Collapse(𝒯′)_m sums the HEntry inputs across mode m, grouping on the
// remaining coordinates plus the Hadamard column. The column index takes
// mode m's place in the output, so Collapse(𝒳 ∗₂ Bᵀ)₂ yields the 3-way
// 𝒯 = 𝒳 ×₂ Bᵀ directly.
func collapse(c *mr.Cluster, codec Codec, inFiles []string, m int, outFile string) ([]Entry, error) {
	m1, m2 := otherModes(m)
	inputs := make([]mr.Input[[3]int64, sval], len(inFiles))
	for i, f := range inFiles {
		inputs[i] = mr.MapInput(f, func(h HEntry, emit func([3]int64, sval)) {
			emit([3]int64{h.Idx[m1], h.Idx[m2], int64(h.Col)}, sval{tag: tagTensor, val: h.Val})
		})
	}
	job := mr.Job[[3]int64, sval, Entry]{
		Name:   fmt.Sprintf("collapse(mode=%d)", m),
		Inputs: inputs,
		Reduce: func(key [3]int64, vals []sval, emit func(Entry)) {
			var sum float64
			for _, v := range vals {
				sum += v.val
			}
			if sum == 0 {
				return
			}
			var idx [3]int64
			idx[m1], idx[m2], idx[m] = key[0], key[1], key[2]
			emit(Entry{Idx: idx, Val: sum})
		},
		Partition: mr.HashTriple,
		OutSize:   entrySize,
		Output:    outFile,
	}
	svalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// taggedH is an IMHP output record: which side (𝒯′ or 𝒯″) it belongs to
// plus the Hadamard entry itself.
type taggedH struct {
	side uint8 // 1 for 𝒯′, 2 for 𝒯″
	h    HEntry
}

func taggedHSize(taggedH) int64 { return hEntryBytes }

// imhp is HaTen2-DRI's integrated job (§III-B4): it computes both
// 𝒯′ = 𝒳 ∗_{m1} Bᵀ and 𝒯″ = bin(𝒳) ∗_{m2} Cᵀ in a single MapReduce job
// that reads 𝒳 from the DFS once. The mapper emits every tensor entry
// under two keys (its m1 coordinate, tagged for B, and its m2
// coordinate, tagged for C); reducers hold one factor row — O(Q) extra
// memory, the deliberate memory-for-jobs trade the paper makes — and
// multiply it against their fiber. The two result tensors are written to
// t1File and t2File (MultipleOutputs in the Hadoop implementation).
func imhp(c *mr.Cluster, codec Codec, xFile string, m1 int, bFile string, m2 int, cFile string, t1File, t2File string) error {
	job := mr.Job[[3]int64, sval, taggedH]{
		Name: fmt.Sprintf("imhp(%s,%d,%d)", xFile, m1, m2),
		Inputs: []mr.Input[[3]int64, sval]{
			mr.MapInput(xFile, func(e Entry, emit func([3]int64, sval)) {
				emit([3]int64{1, e.Idx[m1], 0}, sval{tag: tagT1, idx: e.Idx, val: e.Val})
				emit([3]int64{2, e.Idx[m2], 0}, sval{tag: tagT2, idx: e.Idx, val: 1})
			}),
			mr.MapInput(bFile, func(cell MatEntry, emit func([3]int64, sval)) {
				emit([3]int64{1, cell.Row, 0}, sval{tag: tagMat, col: cell.Col, val: cell.Val})
			}),
			mr.MapInput(cFile, func(cell MatEntry, emit func([3]int64, sval)) {
				emit([3]int64{2, cell.Row, 0}, sval{tag: tagMat, col: cell.Col, val: cell.Val})
			}),
		},
		Reduce: func(key [3]int64, vals []sval, emit func(taggedH)) {
			side := uint8(key[0])
			// One factor row: O(Q) memory per reducer (vs. O(1) for the
			// per-column DRN jobs — the trade §III-B4 argues is cheap),
			// held in a pooled buffer.
			j := joinPool.Get().(*joinScratch)
			defer joinPool.Put(j)
			row := j.row[:0]
			for _, v := range vals {
				if v.tag == tagMat {
					row = append(row, MatEntry{Col: v.col, Val: v.val})
				}
			}
			j.row = row
			for _, v := range vals {
				if v.tag == tagMat {
					continue
				}
				for _, cell := range row {
					if cell.Val == 0 {
						continue
					}
					emit(taggedH{side: side, h: HEntry{Idx: v.idx, Col: cell.Col, Val: v.val * cell.Val}})
				}
			}
		},
		Partition: mr.HashTriple,
		OutSize:   taggedHSize,
	}
	svalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	if err != nil {
		return err
	}
	// MultipleOutputs: split the tagged stream into the two intermediate
	// files the merge job consumes. The stream holds nnz·Q + nnz·R
	// entries, so count sides first and size both halves exactly.
	n1 := 0
	for _, o := range out {
		if o.side == 1 {
			n1++
		}
	}
	t1 := mr.Acquire[HEntry](n1)
	t2 := mr.Acquire[HEntry](len(out) - n1)
	for _, o := range out {
		if o.side == 1 {
			t1 = append(t1, o.h)
		} else {
			t2 = append(t2, o.h)
		}
	}
	mr.Recycle(out)
	if err := mr.WriteFileOwned(c, t1File, t1, hEntrySize); err != nil {
		mr.Recycle(t2) // t2 never reaches its write on this path
		return err
	}
	return mr.WriteFileOwned(c, t2File, t2, hEntrySize)
}

// crossMerge is CrossMerge(𝒯′, 𝒯″)₍ₙ₎ (Definition 3), the final step of
// HaTen2-Tucker-DRN/DRI: 𝒴(i,q,r) = Σ_{j,k} 𝒯′(i,j,k,q)·𝒯″(i,j,k,r).
// Both intermediates are shuffled on their mode-n coordinate —
// nnz(𝒳)(Q+R) records, the Table III bound — and each reducer holds one
// tensor slice (nnz(𝒳ᵢ::)(Q+R) memory) and forms all Q·R combinations
// locally. q and r are the column counts of the two factors.
func crossMerge(c *mr.Cluster, codec Codec, t1Files, t2Files []string, n, q, r int) ([]YEntry, error) {
	mapSide := func(tag uint8) func(h HEntry, emit func([3]int64, sval)) {
		return func(h HEntry, emit func([3]int64, sval)) {
			emit([3]int64{h.Idx[n], 0, 0}, sval{tag: tag, idx: h.Idx, col: h.Col, val: h.Val})
		}
	}
	job := mr.Job[[3]int64, sval, YEntry]{
		Name:      fmt.Sprintf("crossmerge(mode=%d)", n),
		Inputs:    sideInputs(t1Files, t2Files, mapSide),
		Reduce:    crossMergeReduce(q, r),
		Partition: mr.HashTriple,
		OutSize:   yEntrySize,
	}
	svalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// crossMergeReduce returns CrossMerge's reducer for factors of q and r
// columns. It matches 𝒯′ and 𝒯″ records on their original (i,j,k)
// coordinate in the join scratch, then crosses the q and r columns into
// a dense q×r accumulator. Coordinates are walked in the order of their
// first 𝒯′ record and each coordinate's records in input order (which
// the engine fixes), and cells are emitted in first-touch order, so
// every cell's floating-point summation order — and the emission order —
// is identical on every run.
func crossMergeReduce(q, r int) func(key [3]int64, vals []sval, emit func(YEntry)) {
	return func(key [3]int64, vals []sval, emit func(YEntry)) {
		j := joinPool.Get().(*joinScratch)
		defer joinPool.Put(j)
		j.reset()
		// Slot s's 𝒯′ records form list 2s, its 𝒯″ records list 2s+1.
		// Only 𝒯′ records create slots; a 𝒯″ record without a 𝒯′
		// partner contributes nothing and is left out.
		for _, v := range vals {
			l := int32(-1)
			if v.tag == tagT1 {
				l = 2 * j.slot(coord3(v.idx))
			}
			j.rec = append(j.rec, l)
		}
		for i, v := range vals {
			if v.tag != tagT1 {
				if s := j.find(coord3(v.idx)); s >= 0 {
					j.rec[i] = 2*s + 1
				}
			}
		}
		j.layout(2 * j.slots())
		for i, v := range vals {
			if l := j.rec[i]; l >= 0 {
				j.put(l, v.col, v.val)
			}
		}
		j.accumulator(q * r)
		for s := 0; s < j.slots(); s++ {
			rc, rv := j.list(2*s + 1)
			if len(rc) == 0 {
				continue
			}
			qc, qv := j.list(2 * s)
			for a := range qc {
				base := int(qc[a]) * r
				for b := range rc {
					j.add(base+int(rc[b]), qv[a]*rv[b])
				}
			}
		}
		for _, cell := range j.touched {
			if v := j.acc[cell]; v != 0 {
				emit(YEntry{I: key[0], Q: cell / int32(r), R: cell % int32(r), Val: v})
			}
		}
	}
}

// pairwiseMerge is PairwiseMerge(𝒯′, 𝒯″)₍ₙ₎ (Definition 4), the final
// step of HaTen2-PARAFAC-DRN/DRI: 𝒴(i,r) = Σ_{j,k} 𝒯′(i,j,k,r)·𝒯″(i,j,k,r).
// Records are shuffled on (mode-n coordinate, r) — 2·nnz(𝒳)·R records,
// the Table IV bound — and reducers pair the two sides on their original
// coordinate.
func pairwiseMerge(c *mr.Cluster, codec Codec, t1Files, t2Files []string, n int) ([]YEntry, error) {
	mapSide := func(tag uint8) func(h HEntry, emit func([3]int64, sval)) {
		return func(h HEntry, emit func([3]int64, sval)) {
			emit([3]int64{h.Idx[n], int64(h.Col), 0}, sval{tag: tag, idx: h.Idx, val: h.Val})
		}
	}
	job := mr.Job[[3]int64, sval, YEntry]{
		Name:      fmt.Sprintf("pairwisemerge(mode=%d)", n),
		Inputs:    sideInputs(t1Files, t2Files, mapSide),
		Reduce:    pairwiseMergeReduce,
		Partition: mr.HashTriple,
		OutSize:   yEntrySize,
	}
	svalAccounting(&job, codec)
	out, _, err := mr.Run(c, job)
	return out, err
}

// pairwiseMergeReduce is PairwiseMerge's reducer. It runs once per
// (coordinate, r) key — millions of calls per ALS iteration — so the
// 𝒯″ sums live in the pooled join scratch, one float per coordinate
// slot. 𝒯′ records are summed in input order; one without a 𝒯″
// partner multiplies +0, as a map miss did, so NaN and Inf propagate.
func pairwiseMergeReduce(key [3]int64, vals []sval, emit func(YEntry)) {
	j := joinPool.Get().(*joinScratch)
	defer joinPool.Put(j)
	j.reset()
	t2 := j.slab[:0]
	for _, v := range vals {
		if v.tag == tagT2 {
			s := j.slot(coord3(v.idx))
			if int(s) == len(t2) {
				t2 = append(t2, 0)
			}
			t2[s] += v.val
		}
	}
	j.slab = t2
	var sum float64
	for _, v := range vals {
		if v.tag == tagT1 {
			var w float64
			if s := j.find(coord3(v.idx)); s >= 0 {
				w = t2[s]
			}
			sum += v.val * w
		}
	}
	if sum == 0 {
		return
	}
	r := int32(key[1])
	emit(YEntry{I: key[0], Q: r, R: r, Val: sum})
}

// sideInputs builds the merge-job input list: every 𝒯′ file mapped with
// the tagT1 mapper and every 𝒯″ file with the tagT2 mapper.
func sideInputs(t1Files, t2Files []string, mapSide func(uint8) func(h HEntry, emit func([3]int64, sval))) []mr.Input[[3]int64, sval] {
	inputs := make([]mr.Input[[3]int64, sval], 0, len(t1Files)+len(t2Files))
	for _, f := range t1Files {
		inputs = append(inputs, mr.MapInput(f, mapSide(tagT1)))
	}
	for _, f := range t2Files {
		inputs = append(inputs, mr.MapInput(f, mapSide(tagT2)))
	}
	return inputs
}
