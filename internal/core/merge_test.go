package core

import (
	"math"
	"testing"
)

// mergeFuzzValues are the values the fuzz decoder picks from: signed
// zeros, infinities, NaN, subnormals and the normal-range edges, plus
// ordinary values whose products and sums round.
var mergeFuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 1.0 / 3, 7,
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324,
	2.2250738585072014e-308, math.MaxFloat64, -1e-310,
}

// mergeFuzzCase is one decoded FuzzMergeReducers input: the same
// records in the 3-way (sval) and N-way (nsval) shapes of every merge
// reducer, plus the column counts they are sized for.
type mergeFuzzCase struct {
	q, r  int
	dims  []int // N-way CrossMerge column count per side
	cross []sval
	pair  []sval
	pairN []nsval
	crosN []nsval
}

// decodeMergeFuzz expands data into records of 4 bytes each: side,
// coordinate, column and value selector. Coordinates come from a small
// pool so they repeat within and across sides; columns are reduced
// modulo column counts of up to 13, so most are never used (sparse
// column numbers). A value selector of 0xf0 or more takes the value's
// raw bits from the next 8 bytes instead (NaN payloads, arbitrary
// subnormals).
func decodeMergeFuzz(shape uint8, data []byte) mergeFuzzCase {
	c := mergeFuzzCase{q: 1 + int(shape)%13, r: 1 + int(shape/13)%7}
	sides := 2 + int(shape>>7)
	c.dims = []int{c.q, c.r, 1 + int(shape)%5}[:sides]
	for len(data) >= 4 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		v := mergeFuzzValues[int(b3)%len(mergeFuzzValues)]
		if b3 >= 0xf0 && len(data) >= 8 {
			var u uint64
			for i := 0; i < 8; i++ {
				u |= uint64(data[i]) << (8 * i)
			}
			v = math.Float64frombits(u)
			data = data[8:]
		}
		idx := [3]int64{int64(b1 % 3), int64(b1 / 3 % 3), int64(b1 / 9 % 5)}
		nidx := [maxOrder]int64{idx[0], idx[1], idx[2], int64(b1 >> 6)}
		tag, col := tagT1, int32(int(b2)%c.q)
		if b0&1 == 1 {
			tag, col = tagT2, int32(int(b2)%c.r)
		}
		c.cross = append(c.cross, sval{tag: tag, idx: idx, col: col, val: v})
		c.pair = append(c.pair, sval{tag: tag, idx: idx, val: v})
		side := int32(b0>>1) % int32(sides)
		c.pairN = append(c.pairN, nsval{idx: nidx, col: side, val: v})
		c.crosN = append(c.crosN, nsval{idx: nidx, col: side<<16 | int32(int(b2)%c.dims[side]), val: v})
	}
	return c
}

func runY(reduce func([3]int64, []sval, func(YEntry)), key [3]int64, vals []sval) []YEntry {
	var out []YEntry
	reduce(key, vals, func(y YEntry) { out = append(out, y) })
	return out
}

func runNY(reduce func([2]int64, []nsval, func(NYEntry)), key [2]int64, vals []nsval) []NYEntry {
	var out []NYEntry
	reduce(key, vals, func(y NYEntry) { out = append(out, y) })
	return out
}

// sameBits reports whether two emission sequences match record for
// record, comparing values by their IEEE-754 bits. Any NaN matches any
// NaN: when both operands of an addition are NaN, the hardware returns
// one of them, and which one depends on the operand order the compiler
// picks for the commutative instruction — two builds of one expression
// can differ there. Every other value, ±0 included, must match exactly.
func sameBits[T any](a, b []T, val func(T) float64, rest func(T) any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := val(a[i]), val(b[i])
		if (math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y))) || rest(a[i]) != rest(b[i]) {
			return false
		}
	}
	return true
}

func yVal(y YEntry) float64   { return y.Val }
func yRest(y YEntry) any      { return [3]int64{y.I, int64(y.Q), int64(y.R)} }
func nyVal(y NYEntry) float64 { return y.Val }
func nyRest(y NYEntry) any    { return [2]any{y.I, y.Cols} }

// FuzzMergeReducers is the differential test of the join-scratch merge
// reducers: on arbitrary reduce inputs — interleaved sides, coordinates
// repeated on one side, coordinates with no partner, sparse column
// numbers, signed zeros, infinities, NaNs and subnormals — each reducer
// must emit exactly the records of the map-based reference
// (merge_ref_test.go), bit for bit (NaN payloads aside, see sameBits)
// and in the same order. Each reducer
// runs twice, so a scratch that a previous call left dirty shows up.
func FuzzMergeReducers(f *testing.F) {
	f.Add(uint8(0x25), []byte{0, 1, 2, 3, 1, 1, 4, 5, 2, 1, 6, 2, 3, 1, 0, 4})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		c := decodeMergeFuzz(shape, data)
		key3, key2 := [3]int64{5, int64(c.r), 0}, [2]int64{5, int64(c.r)}
		for rep := 0; rep < 2; rep++ {
			if got, want := runY(crossMergeReduce(c.q, c.r), key3, c.cross), runY(refCrossMergeReduce, key3, c.cross); !sameBits(got, want, yVal, yRest) {
				t.Fatalf("crossMerge q=%d r=%d:\n got %v\nwant %v", c.q, c.r, got, want)
			}
			if got, want := runY(pairwiseMergeReduce, key3, c.pair), runY(refPairwiseMergeReduce, key3, c.pair); !sameBits(got, want, yVal, yRest) {
				t.Fatalf("pairwiseMerge:\n got %v\nwant %v", got, want)
			}
			sides := len(c.dims)
			if got, want := runNY(pairwiseMergeNReduce(sides), key2, c.pairN), runNY(refPairwiseMergeNReduce(sides), key2, c.pairN); !sameBits(got, want, nyVal, nyRest) {
				t.Fatalf("pairwiseMergeN sides=%d:\n got %v\nwant %v", sides, got, want)
			}
			if got, want := runNY(crossMergeNReduce(c.dims), key2, c.crosN), runNY(refCrossMergeNReduce(sides), key2, c.crosN); !sameBits(got, want, nyVal, nyRest) {
				t.Fatalf("crossMergeN dims=%v:\n got %v\nwant %v", c.dims, got, want)
			}
		}
	})
}

// mergeBenchInput is a representative reduce input for each merge
// reducer, laid out the way the shuffle delivers it: all 𝒯′ records
// (the first input file) before all 𝒯″ records, each side in
// coordinate order. It reuses mergeFuzzCase's shape.
func mergeBenchInput() mergeFuzzCase {
	const coords = 64
	c := mergeFuzzCase{q: 8, r: 8, dims: []int{4, 4, 4}}
	at := func(k int) [3]int64 { return [3]int64{5, int64(k % 16), int64(k / 16)} }
	val := func(k, col int) float64 { return 1 + float64((k*31+col*17)%97)/97 }
	for k := 0; k < coords; k++ {
		for q := 0; q < c.q; q++ {
			c.cross = append(c.cross, sval{tag: tagT1, idx: at(k), col: int32(q), val: val(k, q)})
		}
		c.pair = append(c.pair, sval{tag: tagT1, idx: at(k), val: val(k, 0)})
	}
	for k := 0; k < coords; k++ {
		for r := 0; r < c.r; r++ {
			c.cross = append(c.cross, sval{tag: tagT2, idx: at(k), col: int32(r), val: val(k, r+c.q)})
		}
		c.pair = append(c.pair, sval{tag: tagT2, idx: at(k), val: 1})
	}
	for s, d := range c.dims {
		for k := 0; k < coords; k++ {
			idx := coord3(at(k))
			c.pairN = append(c.pairN, nsval{idx: idx, col: int32(s), val: val(k, s)})
			for q := 0; q < d; q++ {
				c.crosN = append(c.crosN, nsval{idx: idx, col: int32(s)<<16 | int32(q), val: val(k, s+q)})
			}
		}
	}
	return c
}

// BenchmarkMergeReduce times one reduce call of each merge reducer on
// mergeBenchInput; the -ref legs run the map-based reference reducers
// on the same input for comparison.
func BenchmarkMergeReduce(b *testing.B) {
	c := mergeBenchInput()
	sides := len(c.dims)
	var sink float64
	emitY := func(y YEntry) { sink += y.Val }
	emitNY := func(y NYEntry) { sink += y.Val }
	key3, key2 := [3]int64{5, 3, 0}, [2]int64{5, 3}
	cross, pairN, crossN := crossMergeReduce(c.q, c.r), pairwiseMergeNReduce(sides), crossMergeNReduce(c.dims)
	refPairN, refCrossN := refPairwiseMergeNReduce(sides), refCrossMergeNReduce(sides)
	for _, m := range []struct {
		name string
		run  func()
	}{
		{"cross", func() { cross(key3, c.cross, emitY) }},
		{"pairwise", func() { pairwiseMergeReduce(key3, c.pair, emitY) }},
		{"pairwiseN", func() { pairN(key2, c.pairN, emitNY) }},
		{"crossN", func() { crossN(key2, c.crosN, emitNY) }},
		{"cross-ref", func() { refCrossMergeReduce(key3, c.cross, emitY) }},
		{"pairwise-ref", func() { refPairwiseMergeReduce(key3, c.pair, emitY) }},
		{"pairwiseN-ref", func() { refPairN(key2, c.pairN, emitNY) }},
		{"crossN-ref", func() { refCrossN(key2, c.crosN, emitNY) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.run()
			}
		})
	}
}
