package engine

import (
	"sort"
	"sync"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/sim"
)

// shard is one event location's single-writer slice of an instance: its
// own decision scheme, its own aggregation window, its own lock. TIBFIT
// windows close per event location (paper §3), and every registered
// scheme keeps per-node state only, so partitioning the member population
// across locations preserves every decision and every trust value bit for
// bit — concurrent ingest at different locations simply never contends.
//
// Lock order: an ingest path takes only shard.mu; a window expiry takes
// shard.mu then ringMu (via recordDecision); snapshot/restore take
// stateMu then each shard.mu in index order. No path takes two shard
// locks at once, and nothing takes shard.mu while holding ringMu, so the
// hierarchy stateMu → shard.mu → ringMu is cycle-free.
type shard struct {
	mu     sync.Mutex
	scheme decision.Scheme
	agg    *aggregator.Binary
	// members is this location's population, sorted ascending: the
	// globally-sorted member at index k*S+s lives at position k of shard
	// s, which is how TrustTable places rows without re-sorting.
	members []int
	// opening, non-nil only while ReportMany holds mu, catches the expiry
	// of a window the batch opens so the batch can schedule it later, in
	// the order of the report that opened it.
	opening *heldExpiry
}

// heldExpiry is a window expiry ReportMany has caught but not yet handed
// to the clock: the requested delay, the callback, the clock time of the
// request, and the batch index of the report that opened the window.
type heldExpiry struct {
	d     sim.Duration
	fn    func()
	asked sim.Time
	by    int32
}

// shardClock adapts the tenant's Clock for one shard: expiry callbacks
// are wrapped to run under the shard's lock, so window closes serialize
// with that shard's ingest and nothing else. Deadlines still live on the
// one tenant-wide clock, whose single-drain contract (WallClock's firing
// guard; the sim kernel's single thread) fires all shards' callbacks in
// (deadline, seq) order — the fan-in order of the decision ring.
type shardClock struct {
	in *Instance
	sh *shard
}

func (c shardClock) Now() sim.Time { return c.in.clock.Now() }

func (c shardClock) AfterFunc(d sim.Duration, fn func()) {
	if h := c.sh.opening; h != nil {
		h.d, h.fn, h.asked = d, fn, c.in.clock.Now()
		return
	}
	c.expireAfter(d, fn)
}

// expireAfter schedules fn on the tenant clock, wrapped to run under the
// shard's lock and to die with the instance.
func (c shardClock) expireAfter(d sim.Duration, fn func()) {
	in, sh := c.in, c.sh
	in.clock.AfterFunc(d, func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if in.closed.Load() {
			return
		}
		fn()
	})
}

// ShardMembers partitions a member population into n event locations:
// the members are sorted and dealt round-robin, so sorted member i lands
// in shard i%n at position i/n. Round-robin keeps shard populations
// within one of each other for any n, and the inverse index arithmetic
// is what lets snapshot and trust-table walks reassemble global sorted
// order without sorting. n is clamped to [1, len(members)].
func ShardMembers(members []int, n int) [][]int {
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	if n > len(sorted) {
		n = len(sorted)
	}
	if n < 1 {
		n = 1
	}
	out := make([][]int, n)
	quota := (len(sorted) + n - 1) / n
	for s := range out {
		out[s] = make([]int, 0, quota)
	}
	for i, id := range sorted {
		out[i%n] = append(out[i%n], id)
	}
	return out
}
