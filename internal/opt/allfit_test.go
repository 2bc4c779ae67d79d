package opt

import (
	"reflect"
	"testing"
)

// TestAllFitMatchesFlow: on segments at and just past the all-fit
// threshold, solveSegment (which skips the solvers when everything fits)
// must label exactly as the min-cost flow plus repair and as the greedy
// do when run directly. Cache size 100; the intervals alone peak at 90
// bytes on step 12, where two stitched boundary intervals add their
// reservations.
func TestAllFitMatchesFlow(t *testing.T) {
	const cacheSize = 100
	ivs := func(third int64) []interval {
		spans := []struct {
			from, to int
			size     int64
		}{{10, 14, 30}, {11, 16, 40}, {15, 19, 50}, {12, 13, third}}
		out := make([]interval, len(spans))
		for i, s := range spans {
			out[i] = interval{from: s.from, to: s.to, size: s.size, cost: float64(s.size),
				rank: 1 / float64(s.to-s.from)}
		}
		return out
	}
	bnd := func(size int64) []interval {
		// Clipped to [10,13) and [17,20): the first covers step 12.
		return []interval{{from: 5, to: 13, size: size}, {from: 17, to: 25, size: size}}
	}
	cases := []struct {
		name string
		sg   segment
		fits bool
	}{
		{"fits", segment{lo: 10, hi: 20, ivs: ivs(20)}, true},
		{"fits-with-boundary", segment{lo: 10, hi: 20, ivs: ivs(20), bnd: bnd(10)}, true},
		{"boundary-1-byte-over", segment{lo: 10, hi: 20, ivs: ivs(20), bnd: bnd(11)}, false},
		{"1-byte-over", segment{lo: 10, hi: 20, ivs: ivs(31)}, false},
	}
	cfg := Config{CacheSize: cacheSize}.withDefaults()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := newSolveScratch()
			if got := allFit(&tc.sg, cacheSize, sc); got != tc.fits {
				t.Fatalf("allFit = %v, want %v", got, tc.fits)
			}
			for _, greedy := range []bool{false, true} {
				sg := tc.sg
				sg.greedy = greedy
				got := &Result{Admit: make([]bool, 25)}
				if err := solveSegment(&sg, cfg, got, sc); err != nil {
					t.Fatal(err)
				}
				want := &Result{Admit: make([]bool, 25)}
				seedOccupancy(&sg, sc)
				if greedy {
					greedySegment(&sg, cfg, want, sc)
				} else if err := flowSegment(&sg, cfg, want, sc); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Admit, want.Admit) {
					t.Fatalf("greedy=%v: solveSegment admits %v, solver admits %v", greedy, got.Admit, want.Admit)
				}
				admitted := 0
				for _, iv := range sg.ivs {
					if want.Admit[iv.from] {
						admitted++
					}
				}
				if tc.fits != (admitted == len(sg.ivs)) {
					t.Fatalf("greedy=%v: solver admitted %d of %d intervals, fits=%v", greedy, admitted, len(sg.ivs), tc.fits)
				}
			}
		})
	}
}
