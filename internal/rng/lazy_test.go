package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// childSeed is the seed Split(seed, name) gives its stream, recomputed
// here so the reference generators below do not go through the package.
func childSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// drawAll interleaves every drawing method on s and on a reference
// generator built directly from math/rand, and fails on the first value
// that differs.
func drawAll(t *testing.T, label string, s *Source, ref *rand.Rand) {
	t.Helper()
	check := func(method string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %s = %v, reference %v", label, method, got, want)
		}
	}
	for round := 0; round < 4; round++ {
		check("Float64", s.Float64(), ref.Float64())
		check("Intn", s.Intn(97), ref.Intn(97))
		check("Int63", s.Int63(), ref.Int63())
		check("Bernoulli", s.Bernoulli(0.4), ref.Float64() < 0.4)
		check("Uniform", s.Uniform(-3, 8), -3+11*ref.Float64())
		check("Gaussian", s.Gaussian(2, 1.5), 2+1.5*ref.NormFloat64())
		check("Rayleigh", s.Rayleigh(4.25), 4.25*math.Sqrt(-2*math.Log(1-ref.Float64())))
		got, want := s.Perm(9), ref.Perm(9)
		for i := range got {
			check("Perm", got[i], want[i])
		}
		a, b := []int{0, 1, 2, 3, 4, 5, 6}, []int{0, 1, 2, 3, 4, 5, 6}
		s.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := range a {
			check("Shuffle", a[i], b[i])
		}
		check("ExpFloat64", s.ExpFloat64(), ref.ExpFloat64())
	}
}

// TestLazyStreamIdentity pins that building a stream's state on its first
// draw changes no value: every method matches a generator seeded the
// eager way, for a parent split before and after it draws and for a child
// split before its own first draw.
func TestLazyStreamIdentity(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64} {
		// A parent that has never drawn: the child's seed is the
		// parent's first Int63.
		parent := New(seed)
		pref := rand.New(rand.NewSource(seed))
		fresh := parent.Split("fresh")
		freshRef := rand.New(rand.NewSource(childSeed(pref.Int63(), "fresh")))

		// The parent keeps drawing, then splits again.
		drawAll(t, "parent", parent, pref)
		drawn := parent.Split("drawn")
		drawnRef := rand.New(rand.NewSource(childSeed(pref.Int63(), "drawn")))

		// A child split before its own first draw.
		grand := fresh.Split("grand")
		grandRef := rand.New(rand.NewSource(childSeed(freshRef.Int63(), "grand")))

		drawAll(t, "grand", grand, grandRef)
		drawAll(t, "drawn", drawn, drawnRef)
		drawAll(t, "fresh", fresh, freshRef)
		drawAll(t, "parent again", parent, pref)

		named := Split(seed, "named")
		drawAll(t, "package Split", named, rand.New(rand.NewSource(childSeed(seed, "named"))))
	}
}

// TestSplitAllocatesNoState is the memory backstop for lazy state: a
// child that never draws must cost a few bytes, not the ~4.9 KB of a
// seeded generator.
func TestSplitAllocatesNoState(t *testing.T) {
	const n = 10000
	root := New(1)
	root.Int63() // the root's own state is allowed
	kids := make([]*Source, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range kids {
		kids[i] = root.Split("node")
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kids)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 64 {
		t.Fatalf("Split allocates %d B per child, want <= 64", per)
	}
}
