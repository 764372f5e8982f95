package core

import (
	"sync"

	"github.com/haten2/haten2/internal/mr"
)

// joinScratch is the reduce-side join state of the merge jobs
// (CrossMerge and PairwiseMerge, 3-way and N-way). Each of their
// reducers matches the records of the Hadamard intermediates on their
// original tensor coordinate. Doing that with a Go map per reduce call
// put runtime map hashing and per-coordinate list growth at the top of
// the DRI profile, so the join runs on this scratch instead:
//
//   - an open-addressed coordinate table (linear probing, mix64
//     finalizer, grown at ½ load — the design of the engine's reduce
//     grouper, mr.groupArena) that assigns each coordinate a dense slot
//     in first-seen order;
//   - per-(slot, side) (col, val) lists in CSR form, built by count →
//     prefix sum → scatter over the reduce input, so every list keeps
//     the input order;
//   - a per-slot float slab for the pairwise merges;
//   - a dense accumulator with a first-touch order list for the cross
//     merges.
//
// Because slots, lists and accumulator cells are all visited in the
// order the map-based reducers visited their keys, values and cells,
// every floating-point sum is formed in the same order from +0 and the
// outputs are bit-identical to theirs (FuzzMergeReducers compares the
// two). Reducers run concurrently, so scratches come from joinPool,
// one per in-flight reduce call; reset runs at the start of a call, so
// a scratch is clean no matter how its previous call ended.
type joinScratch struct {
	// table maps a coordinate's hash position to slot+1 (0 = empty);
	// its length is a power of two and mask is length-1.
	table []int32
	mask  uint64
	// keys, hashes and at hold, per slot, the coordinate, its mixed
	// hash (to re-probe on growth) and its table index (so reset clears
	// only the entries in use).
	keys   [][maxOrder]int64
	hashes []uint64
	at     []uint64

	// rec holds, per reduce input record, the list it joins
	// (slot·sides + side) or -1 when the record has no part in the join.
	rec []int32
	// List l is cols[start[l]:start[l+1]] with the matching vals; next
	// is the scatter cursor of each list.
	start, next []int32
	cols        []int32
	vals        []float64

	// slab holds the pairwise merges' per-slot floats.
	slab []float64

	// acc is the cross merges' dense accumulator, all +0 between calls;
	// hit marks the touched cells and touched lists them in first-touch
	// order.
	acc     []float64
	hit     []bool
	touched []int32

	// row is the IMHP reducers' factor-row buffer.
	row []MatEntry
}

var joinPool = sync.Pool{New: func() any { return new(joinScratch) }}

// reset empties the table, the lists and the accumulator, keeping
// their storage.
func (j *joinScratch) reset() {
	if j.table == nil {
		j.table = make([]int32, 16)
		j.mask = 15
	}
	for _, i := range j.at {
		j.table[i] = 0
	}
	j.keys, j.hashes, j.at = j.keys[:0], j.hashes[:0], j.at[:0]
	j.rec = j.rec[:0]
	for _, c := range j.touched {
		j.acc[c] = 0
		j.hit[c] = false
	}
	j.touched = j.touched[:0]
}

// coordHash spreads a coordinate over 64 bits (mr.Hash64 ends in the
// mix64 finalizer); the table probes on its low bits.
func coordHash(k [maxOrder]int64) uint64 {
	return mr.Hash64(int64(uint64(k[0]) ^ uint64(k[1])*0xC2B2AE3D27D4EB4F ^
		uint64(k[2])*0x165667B19E3779F9 ^ uint64(k[3])*0xD6E8FEB86659FD93))
}

// coord3 widens a 3-way coordinate to the table's key.
func coord3(idx [3]int64) [maxOrder]int64 { return [maxOrder]int64{idx[0], idx[1], idx[2]} }

// slots returns the number of distinct coordinates registered so far.
func (j *joinScratch) slots() int { return len(j.keys) }

// slot returns k's slot, registering k as the next slot if it is new.
func (j *joinScratch) slot(k [maxOrder]int64) int32 {
	h := coordHash(k)
	for i := h & j.mask; ; i = (i + 1) & j.mask {
		t := j.table[i]
		if t == 0 {
			s := int32(len(j.keys))
			j.table[i] = s + 1
			j.keys = append(j.keys, k)
			j.hashes = append(j.hashes, h)
			j.at = append(j.at, i)
			if len(j.keys)*2 >= len(j.table) {
				j.grow()
			}
			return s
		}
		if j.keys[t-1] == k {
			return t - 1
		}
	}
}

// find returns k's slot, or -1 if k has none.
func (j *joinScratch) find(k [maxOrder]int64) int32 {
	for i := coordHash(k) & j.mask; ; i = (i + 1) & j.mask {
		t := j.table[i]
		if t == 0 {
			return -1
		}
		if j.keys[t-1] == k {
			return t - 1
		}
	}
}

// grow doubles the table and re-probes every slot from its stored hash.
func (j *joinScratch) grow() {
	nt := make([]int32, 2*len(j.table))
	mask := uint64(len(nt) - 1)
	for s, h := range j.hashes {
		i := h & mask
		for nt[i] != 0 {
			i = (i + 1) & mask
		}
		nt[i] = int32(s) + 1
		j.at[s] = i
	}
	j.table, j.mask = nt, mask
}

// layout counts the records of each of the n lists named in rec and
// prefix-sums the counts into list offsets; put then scatters the
// records into their lists.
func (j *joinScratch) layout(n int) {
	j.start = resize(j.start, n+1)
	clear(j.start)
	for _, l := range j.rec {
		if l >= 0 {
			j.start[l+1]++
		}
	}
	for l := 0; l < n; l++ {
		j.start[l+1] += j.start[l]
	}
	j.next = append(j.next[:0], j.start[:n]...)
	j.cols = resize(j.cols, int(j.start[n]))
	j.vals = resize(j.vals, int(j.start[n]))
}

// put appends (col, v) to list l. Records must be put in input order.
func (j *joinScratch) put(l, col int32, v float64) {
	p := j.next[l]
	j.cols[p], j.vals[p] = col, v
	j.next[l] = p + 1
}

// list returns list l's columns and values.
func (j *joinScratch) list(l int) ([]int32, []float64) {
	a, b := j.start[l], j.start[l+1]
	return j.cols[a:b:b], j.vals[a:b:b]
}

// accumulator makes the dense accumulator at least cells long.
func (j *joinScratch) accumulator(cells int) {
	if len(j.acc) < cells {
		j.acc = make([]float64, cells)
		j.hit = make([]bool, cells)
	}
}

// add adds v into accumulator cell c, recording c's first touch.
func (j *joinScratch) add(c int, v float64) {
	if !j.hit[c] {
		j.hit[c] = true
		j.touched = append(j.touched, int32(c))
	}
	j.acc[c] += v
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
