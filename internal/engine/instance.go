package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/sim"
)

// ErrClosed is returned by operations on a closed instance.
var ErrClosed = errors.New("engine: instance closed")

// ErrUnknownNode is returned when a report names a node outside the
// instance's member set. It is a sentinel (no per-call formatting): the
// rejection sits on the ingest hot path, and the serving layer attaches
// the node ID when it renders the error.
var ErrUnknownNode = errors.New("engine: report from unknown node")

// ErrSnapshotStale is returned by RestoreSealed for a blob that
// authenticated fine but carries a version at or below one already
// restored — the online analogue of the station's replay rejection.
var ErrSnapshotStale = errors.New("engine: snapshot version already restored")

// defaultDecisionLog is the ring capacity for the decision stream when
// Config.DecisionLog is zero: enough for a poller a few seconds behind a
// saturated ingest, small enough to be irrelevant in memory.
const defaultDecisionLog = 4096

// snapshotHandoff is the pseudo head ID the instance uses when asking
// its station to seal state. Real head IDs are non-negative node IDs;
// the instance itself is "head -1".
const snapshotHandoff = -1

// Config configures one engine instance — one tenant's trust namespace.
type Config struct {
	// Scheme is the decision-scheme name, resolved through the
	// internal/decision registry (tibfit, linear, majority, fuzzy,
	// dynamic-trust; see docs/SCHEMES.md).
	Scheme string
	// Params carries the scheme parameters. Params.Trust must validate
	// (the station persists trust under it).
	Params decision.Params
	// Tout is the aggregation window length T_out, in the clock's
	// virtual units.
	Tout sim.Duration
	// Members is the node population this instance arbitrates over.
	Members []int
	// Shards partitions the members into that many event locations, each
	// a single-writer shard with its own lock and aggregation window
	// (ShardMembers defines the assignment), so concurrent ingest at
	// different locations never contends. Values outside [1,
	// len(Members)] are clamped; zero means 1, the legacy single-lock
	// single-window instance.
	Shards int
	// Clock drives window expiry: a *WallClock for live traffic, a
	// *sim.Kernel for replay and equivalence testing.
	Clock Clock
	// DecisionLog bounds the in-memory decision ring exposed through
	// DecisionsSince. Zero means a default; the ring drops the oldest
	// entries once full (pollers that fall further behind miss them).
	DecisionLog int
	// OnDecision, when non-nil, observes every decision as it is made.
	// Calls are serialized by the clock's drain (never concurrent); the
	// callback must return promptly and must not call back into the
	// instance.
	OnDecision func(Decision)
}

// Decision is one completed arbitration window, as exposed on the
// decision stream: the aggregator outcome plus a per-instance sequence
// number pollers resume from.
type Decision struct {
	// Seq numbers decisions from 1 in decision order: the (deadline,
	// seq) order the tenant clock fires window expiries in, across all
	// shards.
	Seq uint64 `json:"seq"`
	// Trigger and Decided are the window-open and window-expiry times on
	// the instance's virtual clock.
	Trigger float64 `json:"trigger"`
	Decided float64 `json:"decided"`
	// Occurred is the arbitration verdict; CTIFor/CTIAgainst the two
	// cumulative-trust sides it weighed.
	Occurred   bool    `json:"occurred"`
	CTIFor     float64 `json:"cti_for"`
	CTIAgainst float64 `json:"cti_against"`
	// Reporters and Silent are the two sides of the vote, sorted by ID.
	Reporters []int `json:"reporters"`
	Silent    []int `json:"silent"`
}

// TrustEntry is one row of an instance's trust table.
type TrustEntry struct {
	Node     int     `json:"node"`
	TI       float64 `json:"ti"`
	Isolated bool    `json:"isolated"`
}

// BatchResult is the per-item outcome of a ReportMany batch: how many
// reports were accepted, and — when not all were — where acceptance
// first failed. A batch keeps going past unknown nodes (each is one bad
// row, not a poisoned batch) and stops only at ErrClosed, so Accepted
// counts every valid report regardless of where the bad rows sat.
type BatchResult struct {
	// Accepted is how many reports the instance ingested.
	Accepted int
	// FirstErr is the index of the first rejected report, -1 when every
	// report was accepted.
	FirstErr int
	// Err is the rejection at FirstErr: ErrUnknownNode or ErrClosed.
	Err error
}

// Instance is one tenant's online decision engine: a decision scheme
// from the registry, a binary aggregation pipeline driven by a Clock,
// and a base-station trust ledger (leach.Station) as the durable home of
// per-node state — the §2 cluster-head machinery re-hosted behind a
// service boundary.
//
// The member population is partitioned into Config.Shards event
// locations (paper §3: aggregation windows close per location), each a
// single-writer shard owning its own scheme state, window, and lock.
// Reports route by one lookup of the node's index in the sorted
// population, which yields both its shard and its position inside it,
// and contend only with reports for the same location; window expiries
// fire through the tenant's one clock, whose single-drain (deadline,
// seq) order is what fans all shards' decisions into one
// totally-ordered ring. All methods are safe for concurrent use.
type Instance struct {
	shards []*shard
	clock  Clock

	members []int   // sorted copy of the full population
	places  []place // places[i] locates members[i]
	// dense is true when members are consecutive IDs, as in a tenant
	// built from a node count: a member's index is then arithmetic.
	dense bool

	// routes recycles ReportMany's per-batch routing scratch.
	routes sync.Pool

	// stateMu serializes snapshot/restore against each other; each walks
	// the shards in index order under stateMu -> shard.mu.
	stateMu         sync.Mutex
	station         *leach.Station
	restoredVersion uint64

	// ringMu guards the decision ring. Appends happen only inside clock
	// drains (windows close only at expiry), which are single-threaded,
	// so the lock exists for reader visibility, not append ordering.
	ringMu     sync.Mutex
	log        []Decision
	seq        uint64
	onDecision func(Decision)

	reports atomic.Uint64
	closed  atomic.Bool
}

// New builds an instance. The scheme is constructed through the decision
// registry, so unknown names fail with the registry's did-you-mean error.
func New(cfg Config) (*Instance, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("engine: a Clock is required")
	}
	station, err := leach.NewStation(cfg.Params.Trust)
	if err != nil {
		return nil, err
	}
	logCap := cfg.DecisionLog
	if logCap <= 0 {
		logCap = defaultDecisionLog
	}
	in := &Instance{
		clock:      cfg.Clock,
		station:    station,
		onDecision: cfg.OnDecision,
		log:        make([]Decision, 0, logCap),
	}
	parts := ShardMembers(cfg.Members, cfg.Shards)
	in.shards = make([]*shard, len(parts))
	for s, part := range parts {
		scheme, err := decision.New(cfg.Scheme, cfg.Params)
		if err != nil {
			return nil, err
		}
		sh := &shard{scheme: scheme, members: part}
		agg, err := aggregator.NewBinary(aggregator.BinaryConfig{
			Tout:    cfg.Tout,
			Members: part,
		}, scheme, shardClock{in: in, sh: sh}, in.recordDecision, nil, nil)
		if err != nil {
			return nil, err
		}
		sh.agg = agg
		in.shards[s] = sh
	}
	in.members = append([]int(nil), cfg.Members...)
	sort.Ints(in.members)
	in.places = make([]place, len(in.members))
	in.dense = true
	for i, id := range in.members {
		// ShardMembers deals sorted member i to shard i mod S, position i / S.
		in.places[i] = place{shard: int32(i % len(in.shards)), pos: int32(i / len(in.shards))}
		in.dense = in.dense && id == in.members[0]+i
	}
	in.routes.New = func() any { return newRouteScratch(len(in.shards)) }
	return in, nil
}

// place is where a member lives: its shard, and its position within
// that shard's members (the index Binary.DeliverAt takes).
type place struct{ shard, pos int32 }

// route locates a member by its index in the sorted population —
// arithmetic for a dense population, one binary search otherwise; ok is
// false for a node outside it.
//
//hot:path
func (in *Instance) route(node int) (p place, ok bool) {
	var i int
	if in.dense {
		i = node - in.members[0]
		ok = uint(i) < uint(len(in.members))
	} else {
		i, ok = slices.BinarySearch(in.members, node)
	}
	if !ok {
		return place{}, false
	}
	return in.places[i], true
}

// recordDecision appends a completed window to the decision ring. It runs
// inside a clock drain with the owning shard's lock held; drains are
// single-threaded (WallClock's firing guard, the sim kernel's thread), so
// appends arrive already in (deadline, seq) order and ringMu only
// publishes them to concurrent readers.
func (in *Instance) recordDecision(o aggregator.BinaryOutcome) {
	in.ringMu.Lock()
	in.seq++
	d := Decision{
		Seq:        in.seq,
		Trigger:    float64(o.TriggerTime),
		Decided:    float64(o.DecideTime),
		Occurred:   o.Decision.Occurred,
		CTIFor:     o.Decision.CTIFor,
		CTIAgainst: o.Decision.CTIAgainst,
		Reporters:  append([]int(nil), o.Decision.Reporters...),
		Silent:     append([]int(nil), o.Decision.Silent...),
	}
	if len(in.log) < cap(in.log) {
		in.log = append(in.log, d)
	} else {
		in.log[int((d.Seq-1)%uint64(cap(in.log)))] = d
	}
	in.ringMu.Unlock()
	if in.onDecision != nil {
		in.onDecision(d)
	}
}

// Report ingests one event report, routed to the reporting node's shard.
// The shard's first report opens its T_out window; the expiry arbitrates.
// Reports from nodes outside the member set are rejected with
// ErrUnknownNode.
//
//hot:path
func (in *Instance) Report(node int) error {
	p, ok := in.route(node)
	if !ok {
		if in.closed.Load() {
			return ErrClosed
		}
		return ErrUnknownNode
	}
	sh := in.shards[p.shard]
	sh.mu.Lock()
	if in.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.agg.DeliverAt(int(p.pos))
	sh.mu.Unlock()
	in.reports.Add(1)
	return nil
}

// routeScratch is one ReportMany call's routing state, pooled per
// instance so a warm batch allocates nothing. Pass 1 routes every known
// report into routed, in batch order, and counts each shard's share;
// bucket then groups the routes by shard (a counting sort, so each group
// keeps batch order) for pass 2 to deliver group by group.
type routeScratch struct {
	routed []dest
	bucket []dest
	// Per shard: report count, end offset of its group in bucket, batch
	// index of its first report, and the expiry of a window the batch
	// opened. order lists the shards present, in order of first
	// appearance.
	count, end, first []int32
	held              []heldExpiry
	order             []int32
}

// dest is one known report's place and its index in the batch.
type dest struct {
	place
	idx int32
}

func newRouteScratch(shards int) *routeScratch {
	return &routeScratch{
		routed: make([]dest, 0, 256),
		bucket: make([]dest, 0, 256),
		count:  make([]int32, shards),
		end:    make([]int32, shards),
		first:  make([]int32, shards),
		held:   make([]heldExpiry, shards),
		order:  make([]int32, 0, shards),
	}
}

// ReportMany ingests a batch — the bulk path the HTTP layer uses. Each
// report is routed once; then each shard present in the batch is locked
// once, in the order of its first report, and receives its reports in
// batch order. The result is the per-report stream's (docs/DETERMINISM.md,
// invariant 9): no window closes during a call (expiries fire only in
// clock drains) and isolation changes only at close, so within a shard
// every report sees the state it would have seen one call at a time,
// and across shards the only ordering that shows is the clock's schedule
// order of window expiries — which the batch fixes by holding each
// expiry it opens and scheduling them afterwards in the order of the
// reports that opened them. Unknown nodes are skipped (the batch
// continues; the serving layer returns partial accept); a closed
// instance aborts the remainder. The result carries the accepted count
// and the first rejection.
//
//hot:path
func (in *Instance) ReportMany(nodes []int) BatchResult {
	sc := in.routes.Get().(*routeScratch)
	defer in.routes.Put(sc)
	res := sc.routeAll(in, nodes)

	// Pass 2: one lock per shard present.
	visited := 0
	for _, s := range sc.order {
		sh := in.shards[s]
		sh.mu.Lock()
		if in.closed.Load() {
			sh.mu.Unlock()
			// Every report from here on is undelivered; the earliest is
			// this shard's first.
			if res.Err == nil || int(sc.first[s]) < res.FirstErr {
				res.FirstErr, res.Err = int(sc.first[s]), ErrClosed
			}
			break
		}
		h := &sc.held[s]
		h.fn = nil
		sh.opening = h
		for _, r := range sc.bucket[sc.end[s]-sc.count[s] : sc.end[s]] {
			if h.fn == nil {
				h.by = r.idx
			}
			sh.agg.DeliverAt(int(r.pos))
		}
		sh.opening = nil
		sh.mu.Unlock()
		res.Accepted += int(sc.count[s])
		visited++
	}
	sc.scheduleHeld(in, sc.order[:visited])
	if res.Accepted > 0 {
		in.reports.Add(uint64(res.Accepted))
	}
	return res
}

// routeAll is ReportMany's pass 1: it routes every report, records the
// first rejection, and groups the routes by shard in first-appearance
// order. A closed instance stops routing at its first unknown node, the
// point where the per-report path would first notice it.
//
//hot:path
func (sc *routeScratch) routeAll(in *Instance, nodes []int) BatchResult {
	res := BatchResult{FirstErr: -1}
	sc.routed = sc.routed[:0]
	sc.order = sc.order[:0]
	clear(sc.count)
	for i, node := range nodes {
		p, ok := in.route(node)
		if !ok {
			if in.closed.Load() {
				if res.Err == nil {
					res.FirstErr, res.Err = i, ErrClosed
				}
				break
			}
			if res.Err == nil {
				res.FirstErr, res.Err = i, ErrUnknownNode
			}
			continue
		}
		if sc.count[p.shard] == 0 {
			sc.first[p.shard] = int32(i)
			sc.order = append(sc.order, p.shard)
		}
		sc.count[p.shard]++
		sc.routed = append(sc.routed, dest{place: p, idx: int32(i)})
	}

	var off int32
	for _, s := range sc.order {
		sc.end[s] = off
		off += sc.count[s]
	}
	sc.bucket = slices.Grow(sc.bucket[:0], len(sc.routed))[:len(sc.routed)]
	for _, r := range sc.routed {
		sc.bucket[sc.end[r.shard]] = r
		sc.end[r.shard]++
	}
	return res
}

// scheduleHeld hands the clock the window expiries a batch caught, in
// the batch order of the reports that opened the windows. That order is
// usually the visit order already; it differs only when a shard's first
// report in the batch came from an isolated node, which opens nothing.
// Each delay is shortened by the clock time spent since the window
// opened, so the deadline stays T_out after the window's trigger.
//
//hot:path
func (sc *routeScratch) scheduleHeld(in *Instance, visited []int32) {
	n := 0
	for _, s := range visited {
		if sc.held[s].fn != nil {
			visited[n] = s
			n++
		}
	}
	opened := visited[:n]
	for i := 1; i < len(opened); i++ {
		for j := i; j > 0 && sc.held[opened[j]].by < sc.held[opened[j-1]].by; j-- {
			opened[j], opened[j-1] = opened[j-1], opened[j]
		}
	}
	for _, s := range opened {
		h := &sc.held[s]
		shardClock{in: in, sh: in.shards[s]}.expireAfter(h.d-in.clock.Now().Sub(h.asked), h.fn)
		h.fn = nil
	}
}

// SealedSnapshot captures the tenant's trust state as a sealed blob —
// core.SealSnapshot under the station's key, RoleIssue, a fresh
// monotonic version — suitable for RestoreSealed into a later instance.
// Each shard's live scheme state is flushed into the station ledger
// first, walking shards in index order, so the blob reflects every
// decision made so far across the whole population.
func (in *Instance) SealedSnapshot() ([]byte, error) {
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	if in.closed.Load() {
		return nil, ErrClosed
	}
	for _, sh := range in.shards {
		sh.mu.Lock()
		if st, ok := sh.scheme.(decision.Stateful); ok {
			in.station.StoreSnapshot(st.Snapshot())
		}
		sh.mu.Unlock()
	}
	return in.station.IssueFor(snapshotHandoff, in.members), nil
}

// RestoreSealed verifies a sealed blob and merges its trust records into
// the instance: checksum and role are checked first (tampered or
// truncated blobs fail with core.ErrSnapshotCorrupt; a term-end upload
// blob is not restorable state), then the version must exceed any
// already restored (ErrSnapshotStale). On success the station ledger
// absorbs the records and each shard's live scheme state is rebuilt from
// its members' slice of the ledger.
func (in *Instance) RestoreSealed(blob []byte) error {
	in.stateMu.Lock()
	defer in.stateMu.Unlock()
	if in.closed.Load() {
		return ErrClosed
	}
	version, role, recs, err := core.OpenSnapshot(in.station.SealKey(), blob)
	if err != nil {
		return fmt.Errorf("engine: verifying snapshot: %w", err)
	}
	if role != core.RoleIssue {
		return fmt.Errorf("engine: restore needs station-issued state, got a term-end upload: %w",
			leach.ErrSnapshotReplay)
	}
	if version <= in.restoredVersion {
		return fmt.Errorf("engine: blob version %d, already restored %d: %w",
			version, in.restoredVersion, ErrSnapshotStale)
	}
	in.restoredVersion = version
	in.station.StoreSnapshot(recs)
	for _, sh := range in.shards {
		sh.mu.Lock()
		if st, ok := sh.scheme.(decision.Stateful); ok {
			st.Restore(in.station.SnapshotFor(sh.members))
		}
		sh.mu.Unlock()
	}
	return nil
}

// DecisionsSince returns decisions with Seq > since, oldest first. The
// ring is bounded (Config.DecisionLog): a poller more than the ring
// capacity behind silently misses the overwritten entries and should
// resume from the first Seq it receives.
func (in *Instance) DecisionsSince(since uint64) []Decision {
	in.ringMu.Lock()
	defer in.ringMu.Unlock()
	if in.seq <= since {
		return nil
	}
	first := uint64(1)
	if cap(in.log) > 0 && in.seq > uint64(cap(in.log)) {
		first = in.seq - uint64(cap(in.log)) + 1
	}
	if since+1 > first {
		first = since + 1
	}
	out := make([]Decision, 0, in.seq-first+1)
	for s := first; s <= in.seq; s++ {
		out = append(out, in.log[int((s-1)%uint64(cap(in.log)))])
	}
	return out
}

// DecisionCount returns how many decisions the instance has made.
func (in *Instance) DecisionCount() uint64 {
	in.ringMu.Lock()
	defer in.ringMu.Unlock()
	return in.seq
}

// ReportCount returns how many reports the instance has accepted.
func (in *Instance) ReportCount() uint64 { return in.reports.Load() }

// Members returns the instance's member IDs, sorted ascending. The
// slice is shared and must not be mutated.
func (in *Instance) Members() []int { return in.members }

// Shards returns how many single-writer shards the population is
// partitioned into.
func (in *Instance) Shards() int { return len(in.shards) }

// SchemeName returns the canonical name of the instance's scheme.
func (in *Instance) SchemeName() string { return in.shards[0].scheme.Name() }

// TI returns the scheme's current trust index for a node. A node outside
// the member set reads through an arbitrary shard's scheme, which — all
// schemes holding per-node state only — answers the default trust, the
// same value the single-lock instance reported.
func (in *Instance) TI(node int) float64 {
	sh := in.shards[0]
	if p, ok := in.route(node); ok {
		sh = in.shards[p.shard]
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.scheme.TI(node)
}

// IsolatedNodes returns the sorted IDs of all isolated nodes.
func (in *Instance) IsolatedNodes() []int {
	var out []int
	for _, sh := range in.shards {
		sh.mu.Lock()
		out = append(out, sh.scheme.IsolatedNodes()...)
		sh.mu.Unlock()
	}
	sort.Ints(out)
	return out
}

// TrustTable returns one row per member, sorted by node ID — the
// tenant's live trust state as the HTTP layer serves it. Each shard is
// locked once; shard s's k-th member is the globally-sorted member
// k*S+s (the ShardMembers round-robin inverse), so rows land in place
// without a sort.
func (in *Instance) TrustTable() []TrustEntry {
	out := make([]TrustEntry, len(in.members))
	nShards := len(in.shards)
	for s, sh := range in.shards {
		sh.mu.Lock()
		for k, id := range sh.members {
			out[k*nShards+s] = TrustEntry{
				Node:     id,
				TI:       sh.scheme.TI(id),
				Isolated: sh.scheme.Isolated(id),
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// Close shuts the instance down: pending windows die, further reports
// fail with ErrClosed. Close is idempotent. It closes a *WallClock
// clock; a shared sim kernel is left to its owner.
func (in *Instance) Close() {
	if in.closed.Swap(true) {
		return
	}
	for _, sh := range in.shards {
		sh.mu.Lock()
		sh.agg.Close()
		sh.mu.Unlock()
	}
	if wc, ok := in.clock.(*WallClock); ok {
		wc.Close()
	}
}
