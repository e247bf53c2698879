package geo

import (
	"math"
	"slices"
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// fuzzField derives a deterministic point set from the fuzz inputs:
// count points uniform on a 100×100 area, with every stride-th point
// duplicated from an earlier one so exact distance ties are common.
func fuzzField(seed int64, count uint16, stride uint8) []Point {
	n := int(count)%512 + 1
	src := rng.New(seed).Split("fuzz-field")
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: src.Uniform(0, 100), Y: src.Uniform(0, 100)}
	}
	if s := int(stride) % 8; s > 1 {
		for i := s; i < n; i += s {
			pts[i] = pts[i-s]
		}
	}
	return pts
}

func fuzzOK(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
			return false
		}
	}
	return true
}

// FuzzGridRange pins the grid's range query byte-identical to the
// brute-force pairwise scan: same indices, same (ascending) order, for
// arbitrary query centers, radii, and cell sizes over tie-heavy fields.
func FuzzGridRange(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(0), 2.0, 10.0, 10.0, 15.0)
	f.Add(int64(9), uint16(300), uint8(3), 12.0, -40.0, 160.0, 80.0)
	f.Add(int64(-4), uint16(2), uint8(2), 500.0, 50.0, 50.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, count uint16, stride uint8, cell, qx, qy, r float64) {
		if !fuzzOK(cell, qx, qy, r) || cell <= 1e-6 || r < 0 {
			t.Skip()
		}
		pts := fuzzField(seed, count, stride)
		g := NewGrid()
		g.Rebuild(pts, cell)
		p := Point{X: qx, Y: qy}
		got := g.Range(p, r, nil)
		want := bruteRange(pts, p, r)
		if !slices.Equal(got, want) {
			t.Fatalf("Range(%v, %g): grid %v != brute %v", p, r, got, want)
		}
		if g.AnyWithin2(p, r) != bruteAnyWithin2(pts, p, r) {
			t.Fatalf("AnyWithin2(%v, %g) diverges from brute", p, r)
		}
	})
}

// FuzzGridNearest pins the grid's nearest-neighbor query (plain and
// RSS-clamped) to the brute-force argmin loop, including the
// lowest-index tie-break on exactly equal distances.
func FuzzGridNearest(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(0), 2.0, 10.0, 10.0, 0.0)
	f.Add(int64(3), uint16(400), uint8(2), 7.0, 120.0, -20.0, 1.0)
	f.Add(int64(-11), uint16(1), uint8(0), 1000.0, 50.0, 50.0, 30.0)
	// Whole-number cells and queries: ties on cell boundaries.
	f.Add(int64(5), uint16(64), uint8(2), 1.0, 25.0, 50.0, 1.0)
	f.Add(int64(8), uint16(511), uint8(4), 2.5, 0.0, 100.0, 0.0)
	// Queries at the magnitude limit: a lone point over 2e-6 cells puts
	// the query 5e14 cells out, a capped grid 2e10.
	f.Add(int64(7), uint16(0), uint8(0), 2e-6, 1e9, -1e9, 0.0)
	f.Add(int64(2), uint16(200), uint8(3), 2e-6, -1e9, 1e9, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, count uint16, stride uint8, cell, qx, qy, clamp float64) {
		if !fuzzOK(cell, qx, qy, clamp) || cell <= 1e-6 || clamp < 0 {
			t.Skip()
		}
		pts := fuzzField(seed, count, stride)
		g := NewGrid()
		g.Rebuild(pts, cell)
		p := Point{X: qx, Y: qy}
		got, ok := g.NearestClamped(p, clamp)
		want, wok := bruteNearestClamped(pts, p, clamp)
		if ok != wok || got != want {
			t.Fatalf("NearestClamped(%v, %g): grid (%d,%v) != brute (%d,%v)", p, clamp, got, ok, want, wok)
		}
		got, ok = g.NearestByDist(p, rssKey)
		want, wok = bruteNearestByDist(pts, p, rssKey)
		if ok != wok || got != want {
			t.Fatalf("NearestByDist(%v): grid (%d,%v) != brute (%d,%v)", p, got, ok, want, wok)
		}
	})
}
