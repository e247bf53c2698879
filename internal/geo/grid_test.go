package geo

import (
	"math"
	"slices"
	"testing"

	"github.com/tibfit/tibfit/internal/rng"
)

// bruteRange is the reference pairwise scan Range replaces: ascending
// index order, exact Dist <= r predicate.
func bruteRange(pts []Point, p Point, r float64) []int {
	var out []int
	for i := range pts {
		if pts[i].Dist(p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// bruteNearestClamped is the reference argmin loop: first strictly
// smaller clamped squared distance wins, so ties keep the lowest index.
func bruteNearestClamped(pts []Point, p Point, clamp float64) (int, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	clamp2 := clamp * clamp
	best, bestE2 := -1, math.Inf(1)
	for i := range pts {
		e2 := pts[i].Dist2(p)
		if e2 < clamp2 {
			e2 = clamp2
		}
		if e2 < bestE2 {
			best, bestE2 = i, e2
		}
	}
	return best, true
}

// rssKey mimics the log-distance path-loss metric affiliation uses:
// non-decreasing in distance, with a clamp plateau below one unit.
func rssKey(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return 27 * math.Log10(d)
}

// bruteNearestByDist is the reference first-strict-winner scan over a
// monotone distance key.
func bruteNearestByDist(pts []Point, p Point, key func(float64) float64) (int, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	best, bestKey := -1, math.Inf(1)
	for i := range pts {
		if k := key(pts[i].Dist(p)); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best, true
}

func bruteAnyWithin2(pts []Point, p Point, r float64) bool {
	for i := range pts {
		if pts[i].Dist2(p) <= r*r {
			return true
		}
	}
	return false
}

// randField places n points uniformly on a w×w area; stride > 0 overwrites
// every stride-th point with an earlier one, manufacturing exact-tie
// clusters that stress the (distance, index) comparator.
func randField(src *rng.Source, n int, w float64, stride int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: src.Uniform(0, w), Y: src.Uniform(0, w)}
	}
	if stride > 0 {
		for i := stride; i < n; i += stride {
			pts[i] = pts[i-stride]
		}
	}
	return pts
}

func TestGridRangeMatchesBrute(t *testing.T) {
	src := rng.New(42)
	g := NewGrid()
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, stride := range []int{0, 3} {
			pts := randField(src.Split("field"), n, 100, stride)
			for _, cell := range []float64{2, 10, 250} {
				g.Rebuild(pts, cell)
				var out []int
				for q := 0; q < 50; q++ {
					p := Point{X: src.Uniform(-30, 130), Y: src.Uniform(-30, 130)}
					r := src.Uniform(0, 40)
					out = g.Range(p, r, out)
					want := bruteRange(pts, p, r)
					if !slices.Equal(out, want) {
						t.Fatalf("n=%d cell=%g p=%v r=%g: grid %v != brute %v", n, cell, p, r, out, want)
					}
					if got := g.AnyWithin2(p, r); got != bruteAnyWithin2(pts, p, r) {
						t.Fatalf("AnyWithin2 n=%d cell=%g p=%v r=%g: got %v", n, cell, p, r, got)
					}
				}
			}
		}
	}
}

func TestGridNearestMatchesBrute(t *testing.T) {
	src := rng.New(7)
	g := NewGrid()
	for _, n := range []int{1, 2, 13, 300, 2000} {
		for _, stride := range []int{0, 2} {
			pts := randField(src.Split("field"), n, 100, stride)
			for _, cell := range []float64{1.5, 12, 400} {
				g.Rebuild(pts, cell)
				for q := 0; q < 80; q++ {
					p := Point{X: src.Uniform(-50, 150), Y: src.Uniform(-50, 150)}
					for _, clamp := range []float64{0, 1, 25} {
						got, ok := g.NearestClamped(p, clamp)
						want, wok := bruteNearestClamped(pts, p, clamp)
						if ok != wok || got != want {
							t.Fatalf("n=%d cell=%g clamp=%g p=%v: grid (%d,%v) != brute (%d,%v)",
								n, cell, clamp, p, got, ok, want, wok)
						}
					}
					got, ok := g.NearestByDist(p, rssKey)
					want, wok := bruteNearestByDist(pts, p, rssKey)
					if ok != wok || got != want {
						t.Fatalf("NearestByDist n=%d cell=%g p=%v: grid (%d,%v) != brute (%d,%v)",
							n, cell, p, got, ok, want, wok)
					}
				}
			}
		}
	}
}

func TestGridNearestQueryAtPoint(t *testing.T) {
	pts := []Point{{0, 0}, {5, 5}, {5, 5}, {9, 1}}
	g := NewGrid()
	g.Rebuild(pts, 2)
	if got, ok := g.Nearest(Point{5, 5}); !ok || got != 1 {
		t.Fatalf("Nearest at duplicate point: got (%d,%v), want (1,true)", got, ok)
	}
	if got, ok := g.Nearest(Point{100, 100}); !ok || got != 1 {
		t.Fatalf("Nearest far outside bounds: got (%d,%v), want (1,true)", got, ok)
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := NewGrid()
	g.Rebuild(nil, 5)
	if out := g.Range(Point{1, 2}, 10, nil); len(out) != 0 {
		t.Fatalf("Range on empty grid: %v", out)
	}
	if _, ok := g.Nearest(Point{}); ok {
		t.Fatal("Nearest on empty grid reported ok")
	}
	if g.AnyWithin2(Point{}, 10) {
		t.Fatal("AnyWithin2 on empty grid reported true")
	}
	// All points coincident: one cell, every query resolves to index 0.
	pts := []Point{{3, 3}, {3, 3}, {3, 3}}
	g.Rebuild(pts, 1)
	if got, ok := g.Nearest(Point{50, -20}); !ok || got != 0 {
		t.Fatalf("coincident Nearest: got (%d,%v)", got, ok)
	}
	if out := g.Range(Point{3, 3}, 0, nil); !slices.Equal(out, []int{0, 1, 2}) {
		t.Fatalf("coincident Range r=0: %v", out)
	}
}

func TestGridRebuildReuses(t *testing.T) {
	g := NewGrid()
	src := rng.New(9)
	a := randField(src.Split("a"), 500, 100, 0)
	b := randField(src.Split("b"), 40, 10, 0)
	g.Rebuild(a, 5)
	if got := g.Len(); got != 500 {
		t.Fatalf("Len after first Rebuild: %d", got)
	}
	g.Rebuild(b, 5)
	var out []int
	out = g.Range(Point{5, 5}, 100, out)
	if want := bruteRange(b, Point{5, 5}, 100); !slices.Equal(out, want) {
		t.Fatalf("Range after Rebuild reuse: %v != %v", out, want)
	}
	allocs := testing.AllocsPerRun(20, func() { g.Rebuild(b, 5) })
	if allocs != 0 {
		t.Fatalf("steady-state Rebuild allocates %.0f objects/op, want 0", allocs)
	}
}

func TestGridCellCap(t *testing.T) {
	// Two points 1e9 apart with a 1e-3 cell would want 1e12 columns; the
	// cap must double the cell until the grid fits while queries stay exact.
	pts := []Point{{0, 0}, {1e9, 1e9}, {1e9 - 1, 1e9}}
	g := NewGrid()
	g.Rebuild(pts, 1e-3)
	if g.cols*g.rows > maxGridCells {
		t.Fatalf("cell cap ineffective: %d cells", g.cols*g.rows)
	}
	if got, ok := g.Nearest(Point{1e9, 1e9 - 0.25}); !ok || got != 1 {
		t.Fatalf("Nearest under capped cell: got (%d,%v), want (1,true)", got, ok)
	}
	if out := g.Range(Point{0, 0}, 2, nil); !slices.Equal(out, []int{0}) {
		t.Fatalf("Range under capped cell: %v", out)
	}
}

func TestAutoCell(t *testing.T) {
	if got := AutoCell(nil); got != 1 {
		t.Fatalf("AutoCell(nil) = %g", got)
	}
	if got := AutoCell([]Point{{4, 4}, {4, 4}}); got != 1 {
		t.Fatalf("AutoCell(coincident) = %g", got)
	}
	pts := randField(rng.New(3).Split("f"), 100, 50, 0)
	c := AutoCell(pts)
	if !(c > 0) || c > 50 {
		t.Fatalf("AutoCell = %g, want in (0, 50]", c)
	}
}

// checkNearest asserts that both nearest queries agree with their brute
// scans at p and returns the NearestByDist winner.
func checkNearest(t *testing.T, g *Grid, pts []Point, p Point, clamp float64) int {
	t.Helper()
	got, ok := g.NearestClamped(p, clamp)
	want, wok := bruteNearestClamped(pts, p, clamp)
	if ok != wok || got != want {
		t.Fatalf("NearestClamped(%v, %g) cell=%g: grid (%d,%v) != brute (%d,%v)",
			p, clamp, g.CellSize(), got, ok, want, wok)
	}
	got, ok = g.NearestByDist(p, rssKey)
	want, wok = bruteNearestByDist(pts, p, rssKey)
	if ok != wok || got != want {
		t.Fatalf("NearestByDist(%v) cell=%g: grid (%d,%v) != brute (%d,%v)",
			p, g.CellSize(), got, ok, want, wok)
	}
	return got
}

// TestGridNearestClampPlateau puts several heads within distance 1 of a
// member, where rssKey's clamp makes their keys tie: the lowest index must
// win even though it is neither the closest nor in the member's cell.
func TestGridNearestClampPlateau(t *testing.T) {
	q := Point{50, 50}
	pts := []Point{
		{80, 80},     // 0: far away
		{50.9, 50},   // 1: d=0.9, lowest index on the plateau
		{50, 50.1},   // 2: d=0.1, the closest
		{49.5, 49.8}, // 3
		{51.5, 50},   // 4: d=1.5, off the plateau
		{50.3, 49.6}, // 5
	}
	g := NewGrid()
	for _, cell := range []float64{0.05, 0.3, 1, 4, 100} {
		g.Rebuild(pts, cell)
		if got := checkNearest(t, g, pts, q, 1); got != 1 {
			t.Fatalf("cell=%g: NearestByDist = %d, want 1 (lowest index on the clamp plateau)", cell, got)
		}
		if got, _ := g.NearestClamped(q, 0); got != 2 {
			t.Fatalf("cell=%g: unclamped Nearest = %d, want 2", cell, got)
		}
	}
}

// TestGridNearestEqualDistance places eight points at exactly distance 5
// from the query and rotates which one holds the lowest index, so the
// winner is sometimes in a ring scanned after an equal-distance rival
// with a higher index.
func TestGridNearestEqualDistance(t *testing.T) {
	q := Point{10, 10}
	offs := []Point{{3, 4}, {4, -3}, {-3, 4}, {5, 0}, {0, -5}, {-4, -3}, {3, -4}, {-5, 0}}
	g := NewGrid()
	for r := range offs {
		pts := make([]Point, 0, len(offs)+1)
		for i := range offs {
			pts = append(pts, q.Add(offs[(i+r)%len(offs)]))
		}
		pts = append(pts, Point{30, 30})
		for _, cell := range []float64{0.7, 1, 2.5, 7, 30} {
			g.Rebuild(pts, cell)
			for _, clamp := range []float64{0, 1, 5} {
				if got := checkNearest(t, g, pts, q, clamp); got != 0 {
					t.Fatalf("rotation %d cell=%g: winner %d, want 0", r, cell, got)
				}
			}
		}
	}
}

// TestGridNearestCellBoundaries lays points and queries exactly on cell
// boundaries (k·cell), including cells like 0.1 whose multiples round,
// so cell assignment sits on the edge the ring bound's slack covers.
func TestGridNearestCellBoundaries(t *testing.T) {
	g := NewGrid()
	for _, cell := range []float64{0.1, 1, 2.5, 3} {
		var pts []Point
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				if (j+2*k)%3 != 0 {
					pts = append(pts, Point{float64(k) * cell, float64(j) * cell})
				}
			}
		}
		g.Rebuild(pts, cell)
		for j := -4; j <= 14; j++ {
			for k := -4; k <= 14; k++ {
				q := Point{float64(k) * cell / 2, float64(j) * cell / 2}
				for _, clamp := range []float64{0, 1, cell} {
					checkNearest(t, g, pts, q, clamp)
				}
			}
		}
	}
}

// TestGridNearestRingFrontier puts the winner just across the edge of
// ring 2, 1.21 cells from a query that sits on the left edge of its cell,
// while ring 1 already holds a point 1.39 cells away: the search may stop
// after ring 1 only for a bound at or below one cell.
func TestGridNearestRingFrontier(t *testing.T) {
	pts := []Point{
		{-5, -5},    // 0: pins the grid origin to whole numbers
		{1.4, 0.5},  // 1: ring 1, d=1.39
		{-1.2, 0.5}, // 2: ring 2, d=1.21
	}
	g := NewGrid()
	g.Rebuild(pts, 1)
	q := Point{0.01, 0.5}
	for _, clamp := range []float64{0, 1} {
		if got := checkNearest(t, g, pts, q, clamp); got != 2 {
			t.Fatalf("clamp=%g: NearestByDist = %d, want 2 from ring 2", clamp, got)
		}
	}
}

// TestGridNearestFarQueries queries at the fuzz targets' magnitude limit
// (1e9) over cells of 1e-6, where virtual cell indices reach 1e15 and
// the ring bound must fall back to a whole cell of slack.
func TestGridNearestFarQueries(t *testing.T) {
	src := rng.New(5).Split("far")
	pts := make([]Point, 40)
	for i := range pts {
		pts[i] = Point{X: src.Uniform(0, 1e-4), Y: src.Uniform(0, 1e-4)}
	}
	pts[7] = pts[3]
	g := NewGrid()
	for _, set := range [][]Point{pts[:1], pts} {
		g.Rebuild(set, 1e-6)
		for _, q := range []Point{{1e9, 1e9}, {-1e9, 5e-5}, {3e-5, -1e9}, {1e9, -1e9}, {-1e9, -1e9}} {
			cx, cy := g.virtCellX(q.X), g.virtCellY(q.Y)
			if lb, want := g.ringBound(cx, cy, 5), 4*g.CellSize(); lb != want {
				t.Fatalf("ringBound at cell (%d,%d) = %g, want the one-cell fallback %g", cx, cy, lb, want)
			}
			for _, clamp := range []float64{0, 1} {
				checkNearest(t, g, set, q, clamp)
			}
		}
	}
}

// BenchmarkNearestByDist is one member's affiliation query at field-100k
// density: 1000 heads over a 1000×1000 field, ~1 head per AutoCell cell,
// keyed by the path-loss log.
func BenchmarkNearestByDist(b *testing.B) {
	src := rng.New(1)
	heads := randField(src.Split("heads"), 1000, 1000, 0)
	queries := randField(src.Split("queries"), 4096, 1000, 0)
	g := NewGrid()
	g.Rebuild(heads, AutoCell(heads))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink, _ = g.NearestByDist(queries[i%len(queries)], rssKey)
	}
}

var nearestSink int
