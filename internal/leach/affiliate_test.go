package leach

import (
	"math"
	"slices"
	"testing"

	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/node"
	"github.com/tibfit/tibfit/internal/rng"
)

// fieldElection builds an election over n nodes placed uniformly on a
// side×side field and returns it with every every-th position as a head.
func fieldElection(tb testing.TB, n int, side float64, every int) (*Election, []int) {
	tb.Helper()
	src := rng.New(int64(n)).Split("placement")
	cfg := node.Config{Trust: trustParams()}
	nodes := make([]*node.Node, n)
	for i := range nodes {
		p := geo.Point{X: src.Uniform(0, side), Y: src.Uniform(0, side)}
		nodes[i] = node.MustNew(i, p, node.Correct, cfg, rng.New(int64(i)))
	}
	station, _ := NewStation(trustParams())
	e, err := NewElection(Config{HeadFraction: 0.1}, station, testChannel(), nodes, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	var heads []int
	for i := 0; i < n; i += every {
		heads = append(heads, i)
	}
	return e, heads
}

// TestAffiliateMatchesBruteArgmax pins the grid affiliation to the
// member×head scan it replaced: each member takes the first head, in
// ascending ID order, with strictly the greatest RSS. The field is dense
// enough that many members sit within distance 1 of several heads, where
// the RSS clamp makes their signals tie.
func TestAffiliateMatchesBruteArgmax(t *testing.T) {
	for _, side := range []float64{8, 40, 400} {
		e, heads := fieldElection(t, 600, side, 7)
		var want []Link
		for i, n := range e.nodes {
			if i%7 == 0 {
				continue
			}
			best, bestRSS := -1, math.Inf(-1)
			for _, h := range heads {
				if rss := e.channel.RSS(n.Pos().Dist(e.nodes[h].Pos())); rss > bestRSS {
					best, bestRSS = e.nodes[h].ID(), rss
				}
			}
			want = append(want, Link{Node: n.ID(), Head: best})
		}
		if got := e.affiliate(heads); !slices.Equal(got, want) {
			t.Fatalf("side %g: grid affiliation diverges from the brute argmax", side)
		}
	}
}

// TestAffiliateAllocsIndependentOfNodes is the allocation backstop: past
// the first call, affiliation makes a fixed number of allocations (the
// head bitset and the result slice), however many members it places.
func TestAffiliateAllocsIndependentOfNodes(t *testing.T) {
	allocs := func(n int) float64 {
		e, heads := fieldElection(t, n, math.Sqrt(float64(n))*10, 100)
		return testing.AllocsPerRun(5, func() { e.affiliate(heads) })
	}
	small, large := allocs(2_000), allocs(20_000)
	if large-small > 1 {
		t.Fatalf("affiliate allocates %.0f objects at 20k nodes vs %.0f at 2k, want a difference <= 1", large, small)
	}
}

// BenchmarkAffiliate places 20k members among 200 heads, the density of
// the field-scale campaign (one head per 100 nodes, spacing 10).
func BenchmarkAffiliate(b *testing.B) {
	e, heads := fieldElection(b, 20_000, math.Sqrt(20_000)*10, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		affiliateSink = e.affiliate(heads)
	}
}

var affiliateSink []Link
