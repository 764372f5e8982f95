package core

// Reference reducers for FuzzMergeReducers: the map-based reduce bodies
// the merge jobs ran before the join scratch (join.go), kept verbatim
// as the specification the scratch-based reducers must reproduce bit
// for bit. Only the function headers (and the pairwise scratch map,
// which came from a pool) differ from the originals.

func refCrossMergeReduce(key [3]int64, vals []sval, emit func(YEntry)) {
	// Match 𝒯′ and 𝒯″ records on their original (i,j,k)
	// coordinate, then cross the q and r columns.
	type cv struct {
		col int32
		val float64
	}
	// Coordinates and (q, r) cells are walked in first-seen order
	// (vals order is fixed by the engine), never in map order, so
	// each cell's floating-point summation order — and the
	// emission order — is identical on every run.
	t1 := make(map[[3]int64][]cv)
	t2 := make(map[[3]int64][]cv)
	var idxOrder [][3]int64
	for _, v := range vals {
		if v.tag == tagT1 {
			if _, ok := t1[v.idx]; !ok {
				idxOrder = append(idxOrder, v.idx)
			}
			t1[v.idx] = append(t1[v.idx], cv{v.col, v.val})
		} else {
			t2[v.idx] = append(t2[v.idx], cv{v.col, v.val})
		}
	}
	acc := make(map[[2]int32]float64)
	var accOrder [][2]int32
	for _, idx := range idxOrder {
		rs, ok := t2[idx]
		if !ok {
			continue
		}
		for _, qv := range t1[idx] {
			for _, rv := range rs {
				qr := [2]int32{qv.col, rv.col}
				if _, seen := acc[qr]; !seen {
					accOrder = append(accOrder, qr)
				}
				acc[qr] += qv.val * rv.val
			}
		}
	}
	for _, qr := range accOrder {
		if v := acc[qr]; v != 0 {
			emit(YEntry{I: key[0], Q: qr[0], R: qr[1], Val: v})
		}
	}
}

func refPairwiseMergeReduce(key [3]int64, vals []sval, emit func(YEntry)) {
	t2 := make(map[[3]int64]float64)
	for _, v := range vals {
		if v.tag == tagT2 {
			t2[v.idx] += v.val
		}
	}
	var sum float64
	for _, v := range vals {
		if v.tag == tagT1 {
			sum += v.val * t2[v.idx]
		}
	}
	if sum == 0 {
		return
	}
	r := int32(key[1])
	emit(YEntry{I: key[0], Q: r, R: r, Val: sum})
}

func refCrossMergeNReduce(sides int) func(key [2]int64, vals []nsval, emit func(NYEntry)) {
	return func(key [2]int64, vals []nsval, emit func(NYEntry)) {
		type cv struct {
			col int32
			val float64
		}
		// Per original coordinate, per side: the (col, val) pairs.
		// Coordinates and column cells are walked in first-seen order
		// (vals order is fixed by the engine), never in map order, so
		// summation and emission order are identical on every run.
		bySide := make(map[[maxOrder]int64][][]cv)
		var idxOrder [][maxOrder]int64
		for _, v := range vals {
			side := int(v.col >> 16)
			col := v.col & 0xffff
			lists, ok := bySide[v.idx]
			if !ok {
				lists = make([][]cv, sides)
				idxOrder = append(idxOrder, v.idx)
			}
			lists[side] = append(lists[side], cv{col, v.val})
			bySide[v.idx] = lists
		}
		acc := make(map[[maxOrder - 1]int32]float64)
		var accOrder [][maxOrder - 1]int32
		var cols [maxOrder - 1]int32
		var walk func(idxLists [][]cv, s int, prod float64)
		walk = func(idxLists [][]cv, s int, prod float64) {
			if s == sides {
				if _, seen := acc[cols]; !seen {
					accOrder = append(accOrder, cols)
				}
				acc[cols] += prod
				return
			}
			for _, e := range idxLists[s] {
				cols[s] = e.col
				walk(idxLists, s+1, prod*e.val)
			}
		}
		for _, idx := range idxOrder {
			lists := bySide[idx]
			complete := true
			for s := 0; s < sides; s++ {
				if len(lists[s]) == 0 {
					complete = false
					break
				}
			}
			if complete {
				walk(lists, 0, 1)
			}
		}
		for _, qc := range accOrder {
			if v := acc[qc]; v != 0 {
				emit(NYEntry{I: key[0], Cols: qc, Val: v})
			}
		}
	}
}

func refPairwiseMergeNReduce(sides int) func(key [2]int64, vals []nsval, emit func(NYEntry)) {
	return func(key [2]int64, vals []nsval, emit func(NYEntry)) {
		// Coordinates are summed in first-seen order (vals order is
		// fixed by the engine), never in map order, keeping the
		// floating-point total identical on every run.
		prod := make(map[[maxOrder]int64][]float64)
		var idxOrder [][maxOrder]int64
		for _, v := range vals {
			p, ok := prod[v.idx]
			if !ok {
				p = make([]float64, sides)
				prod[v.idx] = p
				idxOrder = append(idxOrder, v.idx)
			}
			p[v.col] += v.val
		}
		var sum float64
		for _, idx := range idxOrder {
			p := prod[idx]
			term := 1.0
			for s := 0; s < sides; s++ {
				term *= p[s]
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
