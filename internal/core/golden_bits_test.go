package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/haten2/haten2/internal/matrix"
	"github.com/haten2/haten2/internal/tensor"
)

var updateBits = flag.Bool("update", false, "rewrite testdata/factor_bits.golden from this build")

const factorBitsGolden = "factor_bits.golden"

// factorBits folds the IEEE-754 bits of every float in vs and every
// factor matrix into one FNV-64a hash.
func factorBits(vs []float64, factors []*matrix.Matrix) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range vs {
		put(v)
	}
	for _, f := range factors {
		for _, v := range f.Data {
			put(v)
		}
	}
	return h.Sum64()
}

// factorBitRuns lists the pinned runs: 3-way PARAFAC and Tucker under
// both reduce-side merge plans (DRN shuffles per-column Hadamard files,
// DRI the integrated IMHP output), plus the 4-way DRI drivers. Each
// returns the hash of λ or the core, then every factor.
func factorBitRuns() []struct {
	name string
	run  func() (uint64, error)
} {
	x3 := func() *tensor.Tensor { return randomSparse(rand.New(rand.NewSource(31)), [3]int64{24, 18, 14}, 900) }
	x4 := func() *tensor.Tensor { return random4Way(rand.New(rand.NewSource(37)), [4]int64{10, 9, 8, 7}, 500) }
	parafac := func(v Variant) func() (uint64, error) {
		return func() (uint64, error) {
			res, err := ParafacALS(testCluster(), x3(), 4, Options{Variant: v, MaxIters: 3, Tol: 1e-12, Seed: 5})
			if err != nil {
				return 0, err
			}
			return factorBits(res.Model.Lambda, res.Model.Factors), nil
		}
	}
	tucker := func(v Variant) func() (uint64, error) {
		return func() (uint64, error) {
			res, err := TuckerALS(testCluster(), x3(), [3]int{3, 4, 2}, Options{Variant: v, MaxIters: 3, Tol: 1e-12, Seed: 5})
			if err != nil {
				return 0, err
			}
			return factorBits(res.Model.Core.Data, res.Model.Factors), nil
		}
	}
	return []struct {
		name string
		run  func() (uint64, error)
	}{
		{"parafac-dri", parafac(DRI)},
		{"parafac-drn", parafac(DRN)},
		{"tucker-dri", tucker(DRI)},
		{"tucker-drn", tucker(DRN)},
		{"parafac4-dri", func() (uint64, error) {
			res, err := ParafacALSN(testCluster(), x4(), 3, Options{Variant: DRI, MaxIters: 3, Tol: 1e-12, Seed: 5})
			if err != nil {
				return 0, err
			}
			return factorBits(res.Model.Lambda, res.Model.Factors), nil
		}},
		{"tucker4-dri", func() (uint64, error) {
			res, err := TuckerALSN(testCluster(), x4(), []int{2, 3, 2, 2}, Options{Variant: DRI, MaxIters: 3, Tol: 1e-12, Seed: 5})
			if err != nil {
				return 0, err
			}
			return factorBits(res.Model.Core.Data, res.Model.Factors), nil
		}},
	}
}

// TestDRIFactorBitsGolden pins the factor bits of the merge-based plans
// across versions of the code. The determinism tests compare runs of
// one build with each other, and the accuracy tests allow a tolerance,
// so a change that reorders a floating-point summation inside a
// reducer passes both; this test does not. A mismatch after an
// intentional numerical change is regenerated with
//
//	go test ./internal/core -run TestDRIFactorBitsGolden -update
func TestDRIFactorBitsGolden(t *testing.T) {
	path := filepath.Join("testdata", factorBitsGolden)
	var lines []string
	got := make(map[string]string)
	for _, r := range factorBitRuns() {
		h, err := r.run()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got[r.name] = fmt.Sprintf("%016x", h)
		lines = append(lines, r.name+" "+got[r.name])
	}
	if *updateBits {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[name] = h
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s pins %d runs, the test has %d", path, len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: factor bits hash %s, golden %s", name, h, want[name])
		}
	}
}
