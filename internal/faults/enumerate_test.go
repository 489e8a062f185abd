package faults

import (
	"math/bits"
	"slices"
	"testing"
)

// bruteForceSpace lists every index subset of [0, n) with at most
// maxCard members (negative = unbounded), sorted by cardinality and then
// lexicographically: the order EnumerateIndex promises.
func bruteForceSpace(n, maxCard int) [][]int {
	var out [][]int
	for m := 0; m < 1<<n; m++ {
		if maxCard >= 0 && bits.OnesCount(uint(m)) > maxCard {
			continue
		}
		var idx []int
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				idx = append(idx, i)
			}
		}
		out = append(out, idx)
	}
	slices.SortFunc(out, func(a, b []int) int {
		if len(a) != len(b) {
			return len(a) - len(b)
		}
		return slices.Compare(a, b)
	})
	return out
}

// TestEnumerateIndexMatchesBruteForce checks the one scenario
// enumerator against brute force for every n <= 10 and every maxCard
// from -1 to n+1: the full stream, its length against SpaceSize, an
// early stop at every position, and the reuse of the yielded slice.
func TestEnumerateIndexMatchesBruteForce(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for maxCard := -1; maxCard <= n+1; maxCard++ {
			want := bruteForceSpace(n, maxCard)
			var got [][]int
			var backing *int
			EnumerateIndex(n, maxCard, func(idx []int) bool {
				if cap(idx) > 0 {
					// The enumerator reuses one slice for the whole walk.
					if p := &idx[:cap(idx)][0]; backing == nil {
						backing = p
					} else if p != backing {
						t.Fatalf("n=%d maxCard=%d: yielded slice not reused", n, maxCard)
					}
				}
				got = append(got, slices.Clone(idx))
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("n=%d maxCard=%d: %d scenarios, want %d", n, maxCard, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("n=%d maxCard=%d pos %d: %v, want %v", n, maxCard, i, got[i], want[i])
				}
			}
			if size, ok := SpaceSize(n, maxCard); !ok || size != int64(len(want)) {
				t.Fatalf("n=%d maxCard=%d: SpaceSize = %d,%v, want %d", n, maxCard, size, ok, len(want))
			}
			for stop := range want {
				calls := 0
				EnumerateIndex(n, maxCard, func(idx []int) bool {
					if !slices.Equal(idx, want[calls]) {
						t.Fatalf("n=%d maxCard=%d stop %d pos %d: %v, want %v", n, maxCard, stop, calls, idx, want[calls])
					}
					calls++
					return calls <= stop
				})
				if calls != stop+1 {
					t.Fatalf("n=%d maxCard=%d: stop at %d made %d calls", n, maxCard, stop, calls)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		EnumerateIndex(10, -1, func([]int) bool { return true })
	}); allocs > 1 {
		t.Fatalf("EnumerateIndex allocated %v times per walk, want at most the one reused slice", allocs)
	}
}
