//go:build !race

package core

import "testing"

// TestMergeReducersAllocFree pins the join scratch's purpose: once the
// pool is warm, a call of any merge reducer allocates nothing. It is
// left out of -race builds, where sync.Pool drops a share of Put items
// on purpose.
func TestMergeReducersAllocFree(t *testing.T) {
	c := mergeBenchInput()
	sides := len(c.dims)
	var sink float64
	emitY := func(y YEntry) { sink += y.Val }
	emitNY := func(y NYEntry) { sink += y.Val }
	key3, key2 := [3]int64{5, 3, 0}, [2]int64{5, 3}
	cross, pairN, crossN := crossMergeReduce(c.q, c.r), pairwiseMergeNReduce(sides), crossMergeNReduce(c.dims)
	for _, m := range []struct {
		name string
		run  func()
	}{
		{"cross", func() { cross(key3, c.cross, emitY) }},
		{"pairwise", func() { pairwiseMergeReduce(key3, c.pair, emitY) }},
		{"pairwiseN", func() { pairN(key2, c.pairN, emitNY) }},
		{"crossN", func() { crossN(key2, c.crosN, emitNY) }},
	} {
		m.run() // warm the pool and size the scratch
		if avg := testing.AllocsPerRun(50, m.run); avg != 0 {
			t.Errorf("%s: %.2f allocations per reduce call, want 0", m.name, avg)
		}
	}
}
