package geo

import (
	"math"
	"slices"
)

// maxGridCells caps the bucket array so a pathological coordinate spread
// (a handful of points light-years apart with a tiny cell size) cannot
// allocate an unbounded grid. When the requested cell size would exceed
// the cap the cell is doubled until the grid fits; the result is still a
// pure function of the inputs, so determinism is unaffected.
const maxGridCells = 1 << 22

// Grid is a uniform spatial index over a fixed slice of points — the
// replacement for the O(n²) pairwise scans that cluster formation, event
// injection, and mesh neighbor resolution performed at field scale.
//
// Buckets are stored CSR-style: cell c owns order[start[c]:start[c+1]],
// and within a cell point indices are ascending. Every query visits its
// candidate cells in fixed row-major order (y outer, x inner) and breaks
// distance ties by the smaller point index, so results are byte-identical
// to the brute-force loops they replace (docs/DETERMINISM.md invariant 7).
// The differential fuzz targets in grid_fuzz_test.go pin that equivalence.
//
// A Grid is reusable: Rebuild re-indexes a new point set in place,
// recycling the bucket arrays, so steady-state re-indexing (e.g. k-means
// centers every refinement round) does not allocate.
type Grid struct {
	pts        []Point
	cell       float64
	min        Point
	cols, rows int

	start  []int32 // CSR offsets: len cols*rows+1
	order  []int32 // point indices grouped by cell, ascending within a cell
	cellOf []int32 // scratch: per-point cell index during Rebuild
	cursor []int32 // scratch: per-cell write cursor during Rebuild
}

// NewGrid returns an empty grid; call Rebuild before querying.
func NewGrid() *Grid { return &Grid{} }

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// CellSize returns the effective cell size after the Rebuild cap.
func (g *Grid) CellSize() float64 { return g.cell }

// AutoCell returns a cell size targeting O(1) points per cell for a point
// set with no natural query radius (e.g. cluster-head affiliation, where
// the head density — not a radio range — sets the scale): the larger
// bounding-box extent divided by ceil(sqrt(n)). Falls back to 1 for
// degenerate inputs (empty, coincident, or non-finite extents).
func AutoCell(pts []Point) float64 {
	if len(pts) == 0 {
		return 1
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	ext := math.Max(hi.X-lo.X, hi.Y-lo.Y)
	c := ext / math.Ceil(math.Sqrt(float64(len(pts))))
	if !(c > 0) || math.IsInf(c, 0) {
		return 1
	}
	return c
}

// Rebuild re-indexes pts with the given cell size, reusing the grid's
// internal arrays. The grid keeps a reference to pts; callers must not
// mutate the slice while querying. cell must be positive and finite.
func (g *Grid) Rebuild(pts []Point, cell float64) {
	if !(cell > 0) || math.IsInf(cell, 0) {
		panic("geo: grid cell size must be positive and finite")
	}
	g.pts = pts
	n := len(pts)
	if n == 0 {
		g.cell = cell
		g.cols, g.rows = 0, 0
		g.start = g.start[:0]
		g.order = g.order[:0]
		return
	}
	lo, hi := pts[0], pts[0]
	for _, p := range pts {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	g.min = lo
	// Every stored point maps to [0, cols)×[0, rows): the division is
	// monotone, so int((p.X-lo.X)/cell) <= int((hi.X-lo.X)/cell) = cols-1.
	for {
		g.cols = int((hi.X-lo.X)/cell) + 1
		g.rows = int((hi.Y-lo.Y)/cell) + 1
		if g.cols <= maxGridCells && g.rows <= maxGridCells &&
			g.cols*g.rows <= maxGridCells {
			break
		}
		cell *= 2
	}
	g.cell = cell

	nc := g.cols * g.rows
	g.start = growInt32(g.start, nc+1)
	g.cursor = growInt32(g.cursor, nc)
	g.cellOf = growInt32(g.cellOf, n)
	g.order = growInt32(g.order, n)
	for c := range g.start[:nc+1] {
		g.start[c] = 0
	}
	for i, p := range pts {
		c := int32(g.cellY(p.Y)*g.cols + g.cellX(p.X))
		g.cellOf[i] = c
		g.start[c+1]++
	}
	for c := 0; c < nc; c++ {
		g.start[c+1] += g.start[c]
		g.cursor[c] = g.start[c]
	}
	// Iterating point indices in ascending order fills each cell's span
	// in ascending index order — the within-cell invariant queries rely on.
	for i := range pts {
		c := g.cellOf[i]
		g.order[g.cursor[c]] = int32(i)
		g.cursor[c]++
	}
}

// growInt32 returns s with length n, reallocating only when capacity is
// insufficient.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// cellX maps a stored (in-bounds) x coordinate to its column.
//
//hot:path
func (g *Grid) cellX(x float64) int { return int((x - g.min.X) / g.cell) }

// cellY maps a stored (in-bounds) y coordinate to its row.
//
//hot:path
func (g *Grid) cellY(y float64) int { return int((y - g.min.Y) / g.cell) }

// virtCell maps an arbitrary query coordinate to a virtual cell index,
// which may lie outside [0, cols)×[0, rows). math.Floor (not int
// truncation) keeps negative offsets on the correct side.
//
//hot:path
func (g *Grid) virtCellX(x float64) int { return int(math.Floor((x - g.min.X) / g.cell)) }

//hot:path
func (g *Grid) virtCellY(y float64) int { return int(math.Floor((y - g.min.Y) / g.cell)) }

// Range appends to out the indices of all points p with pts[i].Dist(p) <= r
// — the exact math.Hypot predicate of the brute-force loops it replaces —
// and returns out sorted ascending, the canonical order a brute scan over
// ascending indices produces. Candidate cells are visited in row-major
// order and padded by one cell on every side so float rounding at the disk
// boundary can never exclude a qualifying point.
//
//hot:path
func (g *Grid) Range(p Point, r float64, out []int) []int {
	out = out[:0]
	if len(g.pts) == 0 || !(r >= 0) {
		return out
	}
	x0, x1 := g.clampX(g.virtCellX(p.X-r)-1), g.clampX(g.virtCellX(p.X+r)+1)
	y0, y1 := g.clampY(g.virtCellY(p.Y-r)-1), g.clampY(g.virtCellY(p.Y+r)+1)
	for y := y0; y <= y1; y++ {
		row := y * g.cols
		for x := x0; x <= x1; x++ {
			c := row + x
			for _, id := range g.order[g.start[c]:g.start[c+1]] {
				if g.pts[id].Dist(p) <= r {
					out = append(out, int(id))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// AnyWithin2 reports whether any indexed point q satisfies q.Dist2(p) <=
// r*r — the exact squared-distance predicate of the k-means seeding scan.
// The early exit is safe because the result is a bare boolean.
//
//hot:path
func (g *Grid) AnyWithin2(p Point, r float64) bool {
	if len(g.pts) == 0 || !(r >= 0) {
		return false
	}
	r2 := r * r
	x0, x1 := g.clampX(g.virtCellX(p.X-r)-1), g.clampX(g.virtCellX(p.X+r)+1)
	y0, y1 := g.clampY(g.virtCellY(p.Y-r)-1), g.clampY(g.virtCellY(p.Y+r)+1)
	for y := y0; y <= y1; y++ {
		row := y * g.cols
		for x := x0; x <= x1; x++ {
			c := row + x
			for _, id := range g.order[g.start[c]:g.start[c+1]] {
				if g.pts[id].Dist2(p) <= r2 {
					return true
				}
			}
		}
	}
	return false
}

// Nearest returns the index of the point minimizing (Dist2(p), index) —
// the argmin a brute loop keeping the first strictly-smaller squared
// distance produces. ok is false only when the grid is empty.
//
//hot:path
func (g *Grid) Nearest(p Point) (idx int, ok bool) { return g.NearestClamped(p, 0) }

// NearestClamped returns the index of the point minimizing
// (max(Dist2(p), clamp²), index). A positive clamp makes every point
// closer than clamp compare equal — the comparator LEACH affiliation
// needs, because RSS clamps distances below 1 m before the path-loss
// curve and is otherwise strictly decreasing in distance.
//
//hot:path
func (g *Grid) NearestClamped(p Point, clamp float64) (idx int, ok bool) {
	if len(g.pts) == 0 {
		return 0, false
	}
	clamp2 := clamp * clamp
	cx, cy := g.virtCellX(p.X), g.virtCellY(p.Y)
	first, last := g.ringSpan(cx, cy)
	best := -1
	bestE2 := math.Inf(1)
	for m := first; m <= last; m++ {
		best, bestE2 = g.scanRing(p, cx, cy, m, clamp2, best, bestE2)
		// Every later point has Dist2 >= lb² > bestE2 >= clamp², so none
		// can win or tie.
		if best >= 0 && m >= 1 {
			if lb := g.ringBound(cx, cy, m); lb*lb > bestE2 {
				break
			}
		}
	}
	return best, true
}

// NearestByDist returns the index of the point minimizing
// (key(Dist(p)), index), where key must be non-decreasing in the true
// (math.Hypot) distance. It generalizes Nearest to monotone link metrics:
// LEACH affiliation maximizes received signal strength, which is
// RSS(Dist) with RSS non-increasing, so minimizing key = -RSS(Dist)
// reproduces the brute argmax bit-for-bit — including ties where float
// rounding of the path-loss curve maps distinct distances to the same
// RSS, which the comparator resolves to the smaller index exactly as a
// first-strict-winner scan over ascending indices does. ok is false only
// when the grid is empty.
//
//hot:path
func (g *Grid) NearestByDist(p Point, key func(d float64) float64) (idx int, ok bool) {
	if len(g.pts) == 0 {
		return 0, false
	}
	cx, cy := g.virtCellX(p.X), g.virtCellY(p.Y)
	first, last := g.ringSpan(cx, cy)
	best := -1
	bestKey, bestD := math.Inf(1), math.Inf(1)
	for m := first; m <= last; m++ {
		best, bestKey, bestD = g.scanRingBy(p, cx, cy, m, key, best, bestKey, bestD)
		// key is monotone, so once the bound on every later point's
		// distance keys strictly above the incumbent, none can win or tie.
		if best >= 0 && m >= 1 && key(g.ringBound(cx, cy, m)) > bestKey {
			break
		}
	}
	return best, true
}

// ringSpan returns the first and last Chebyshev rings around virtual cell
// (cx, cy) that overlap the grid; rings outside that span hold no cells,
// so a query far outside the field starts at the grid's edge.
func (g *Grid) ringSpan(cx, cy int) (first, last int) {
	first = max(outside(cx, g.cols), outside(cy, g.rows))
	last = max(absInt(cx), absInt(g.cols-1-cx), absInt(cy), absInt(g.rows-1-cy))
	return first, last
}

// outside returns how many cells index v lies beyond [0, n).
func outside(v, n int) int {
	if v < 0 {
		return -v
	}
	return max(v-n+1, 0)
}

// ringSlack is the fraction of a cell by which ringBound undercuts the
// exact ring distance, and ringSlackMaxIndex the index magnitude up to
// which it is proven to cover float rounding.
//
// With u = 2⁻⁵³, a stored point lands in column int(fl(fl(x-min.X)/cell))
// and the query in cx = floor of the same quotient; the two roundings
// move the quotient X = (x-min.X)/cell by at most 2.01u·|X|. So a point
// whose column lies beyond ring m is, in exact arithmetic, more than
// (m - 2.01u(|Xp|+|Xq|))·cell from the query. Hypot and its differences
// shrink the computed distance by at most 4.01u relative (Dist2 against
// lb² by less), and rounding (m-s)·cell grows the bound by at most
// 2.01u, so the bound holds when s >= 2.01u(|Xp|+|Xq|) + 6.02u·m. Both
// |Xp|+|Xq| and m are at most B = max(|cx|,|cy|) + max(cols,rows) + 1,
// so s >= 8.1u·B = 4.05·B·2⁻⁵² suffices. B <= A = |cx|+|cy|+cols+rows,
// and for A < 2⁴⁰ that is below 2⁻⁹: eight times inside the slack.
// Farther out the bound keeps one whole cell, which covers B up to
// ~1.1e15 — past the fuzz targets' reach of 1e9 over cells above 1e-6.
const (
	ringSlack         = 1.0 / 64
	ringSlackMaxIndex = 1 << 40
)

// ringBound returns a lower bound on the computed distance (Dist, and
// the square root of Dist2) from the query in virtual cell (cx, cy) to any
// point in a ring beyond m >= 1: such points lie at least m·cell away in
// exact arithmetic, less the slack for cell-assignment and distance
// rounding.
//
//hot:path
func (g *Grid) ringBound(cx, cy, m int) float64 {
	s := 1.0
	if absInt(cx)+absInt(cy)+g.cols+g.rows < ringSlackMaxIndex {
		s = ringSlack
	}
	return (float64(m) - s) * g.cell
}

// scanRingBy is scanRing for the NearestByDist comparator.
//
//hot:path
func (g *Grid) scanRingBy(p Point, cx, cy, m int, key func(d float64) float64, best int, bestKey, bestD float64) (int, float64, float64) {
	x0, x1 := max(cx-m, 0), min(cx+m, g.cols-1)
	for y := max(cy-m, 0); y <= min(cy+m, g.rows-1); y++ {
		row := y * g.cols
		if y == cy-m || y == cy+m {
			for x := x0; x <= x1; x++ {
				best, bestKey, bestD = g.scanCellBy(p, row+x, key, best, bestKey, bestD)
			}
			continue
		}
		if cx-m >= 0 {
			best, bestKey, bestD = g.scanCellBy(p, row+cx-m, key, best, bestKey, bestD)
		}
		if cx+m < g.cols {
			best, bestKey, bestD = g.scanCellBy(p, row+cx+m, key, best, bestKey, bestD)
		}
	}
	return best, bestKey, bestD
}

// scanCellBy folds cell c's points into the running (key, index) minimum,
// whose holder lies at distance bestD. key is non-decreasing, so a point
// farther than bestD keys at least bestKey and, with a higher index, can
// neither win nor tie: its key is never evaluated.
//
//hot:path
func (g *Grid) scanCellBy(p Point, c int, key func(d float64) float64, best int, bestKey, bestD float64) (int, float64, float64) {
	for _, id := range g.order[g.start[c]:g.start[c+1]] {
		d := g.pts[id].Dist(p)
		if d > bestD && int(id) > best {
			continue
		}
		k := key(d)
		//lint:allow floateq deterministic tie-break: equal keys fall through to the smaller index, mirroring the brute first-strict-win loop
		if k < bestKey || (k == bestKey && int(id) < best) {
			best, bestKey, bestD = int(id), k, d
		}
	}
	return best, bestKey, bestD
}

// scanRing scans the in-grid cells at Chebyshev distance m from (cx, cy)
// in row-major order, folding each candidate into the (e2, index) minimum.
//
//hot:path
func (g *Grid) scanRing(p Point, cx, cy, m int, clamp2 float64, best int, bestE2 float64) (int, float64) {
	x0, x1 := max(cx-m, 0), min(cx+m, g.cols-1)
	for y := max(cy-m, 0); y <= min(cy+m, g.rows-1); y++ {
		row := y * g.cols
		if y == cy-m || y == cy+m {
			for x := x0; x <= x1; x++ {
				best, bestE2 = g.scanCell(p, row+x, clamp2, best, bestE2)
			}
			continue
		}
		if cx-m >= 0 {
			best, bestE2 = g.scanCell(p, row+cx-m, clamp2, best, bestE2)
		}
		if cx+m < g.cols {
			best, bestE2 = g.scanCell(p, row+cx+m, clamp2, best, bestE2)
		}
	}
	return best, bestE2
}

// scanCell folds cell c's points into the running (e2, index) minimum.
//
//hot:path
func (g *Grid) scanCell(p Point, c int, clamp2 float64, best int, bestE2 float64) (int, float64) {
	for _, id := range g.order[g.start[c]:g.start[c+1]] {
		e2 := g.pts[id].Dist2(p)
		if e2 < clamp2 {
			e2 = clamp2
		}
		//lint:allow floateq deterministic tie-break: equal keys fall through to the smaller index, mirroring the brute first-strict-min loop
		if e2 < bestE2 || (e2 == bestE2 && int(id) < best) {
			best, bestE2 = int(id), e2
		}
	}
	return best, bestE2
}

func (g *Grid) clampX(x int) int { return clampInt(x, 0, g.cols-1) }
func (g *Grid) clampY(y int) int { return clampInt(y, 0, g.rows-1) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
