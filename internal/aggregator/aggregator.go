// Package aggregator implements the cluster-head side of TIBFIT: collecting
// event reports off the channel, running the T_out aggregation windows, and
// turning trust-weighted votes into event decisions.
//
// Two aggregators are provided, mirroring the paper's two detection modes:
//
//   - Binary (§3.1): every cluster member is an event neighbor of every
//     event; the first report opens a T_out window; at expiry the reporter
//     set R and silent set NR face off by cumulative trust index.
//   - Location (§3.2, §3.3): reports carry (r, θ) offsets; the aggregator
//     resolves them to absolute coordinates, groups them — either one
//     window at a time or with the concurrent-event circle protocol — runs
//     the K-means-style clustering, and holds one CTI vote per candidate
//     event cluster, using CH-known node positions to derive each
//     candidate's event-neighbor set.
//
// Both aggregators share one windowing-and-feedback pipeline and are
// agnostic to the decision engine via decision.Scheme: the scheme weighs
// each report, arbitrates each window, and absorbs the post-decision trust
// feedback, which is how the paper's TIBFIT-vs-baseline comparisons (and
// the extension schemes in docs/SCHEMES.md) run through identical code.
package aggregator

import (
	"fmt"
	"sort"

	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/geo"
	"github.com/tibfit/tibfit/internal/sim"
	"github.com/tibfit/tibfit/internal/trace"
)

// Feedback receives the per-node verdicts implied by each decision. The
// cluster head broadcasts its decisions; every one-hop member overhears
// them, which is how smart adversaries maintain their trust estimates. The
// simulator delivers that broadcast as a direct callback.
type Feedback func(node int, correct bool)

// BinaryOutcome describes one completed binary aggregation window.
type BinaryOutcome struct {
	// TriggerTime is the arrival of the report that opened the window.
	TriggerTime sim.Time
	// DecideTime is when the window expired and the vote ran.
	DecideTime sim.Time
	// Decision is the CTI vote result.
	Decision core.BinaryDecision
}

// String summarizes the outcome for traces.
func (o BinaryOutcome) String() string {
	return fmt.Sprintf("trigger=%v decide=%v %v", o.TriggerTime, o.DecideTime, o.Decision)
}

// BinaryDecider lets a caller replace the default decide-and-settle step
// — the hook through which the §3.4 shadow-cluster-head panel (or a fault
// injector standing in for a compromised cluster head) takes over the
// decision while the aggregator keeps owning windows and timers. The
// implementation must apply its own trust updates; the returned decision
// is what the cluster head announces. The reporters and silent slices are
// scratch the aggregator reuses between windows — implementations must
// copy anything they keep past the call (core.DecideBinary already does).
type BinaryDecider interface {
	DecideAndSettle(reporters, silent []int) core.BinaryDecision
}

// BinaryConfig configures a binary aggregator.
type BinaryConfig struct {
	// Tout is the aggregation window length T_out.
	Tout sim.Duration
	// Members is the cluster's node set; in the paper's binary experiment
	// every member is an event neighbor of every event.
	Members []int
	// Decider, when non-nil, replaces the default vote+settle step.
	Decider BinaryDecider
	// Alive, when non-nil, reports whether a member is currently able to
	// report (not crashed, battery not depleted). Members for which it
	// returns false are excluded from the silent (NR) set instead of
	// voting "no event" with full CTI weight — the graceful-degradation
	// rule for crash faults. Nil preserves the paper's behaviour: every
	// non-reporter counts against the event.
	Alive func(id int) bool
}

// Binary is the §3.1 binary-event aggregator.
type Binary struct {
	pipeline
	cfg      BinaryConfig
	onDecide func(BinaryOutcome)

	// Report bookkeeping is positional: memberPos maps a member ID to its
	// index in cfg.Members, marks[i] records whether member i reported in
	// the open window, and marked lists the set positions so the window
	// reset touches O(reported) cells instead of clearing a map. Window
	// close is then a single ordered pass over cfg.Members with no hashing.
	// Callers that already know the position (the sharded engine) skip
	// the hash through DeliverAt.
	memberPos map[int]int
	marks     []bool
	marked    []int

	// expire is closeWindow bound once at construction: a method value
	// allocates a closure each time it is evaluated, so opening a window
	// hands the clock this field instead.
	expire func()

	// scrR and scrNR are the per-window R/NR scratch slices, reused
	// across windows: every consumer of the two sides (Arbitrate and
	// the BinaryDecider implementations) copies what it keeps, so the
	// backing arrays stay ours.
	scrR  []int
	scrNR []int
}

// NewBinary returns a binary aggregator running the given decision scheme
// on the given clock — the simulation kernel in batch runs, a wall-clock
// driver in the online engine. onDecide is invoked after every completed
// window; feedback (optional) receives per-node verdicts.
func NewBinary(cfg BinaryConfig, scheme decision.Scheme, clock Clock,
	onDecide func(BinaryOutcome), feedback Feedback, tr *trace.Trace) (*Binary, error) {
	if cfg.Tout <= 0 {
		return nil, fmt.Errorf("aggregator: Tout must be positive, got %v", cfg.Tout)
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("aggregator: binary aggregator needs at least one member")
	}
	if scheme == nil || clock == nil {
		return nil, fmt.Errorf("aggregator: scheme and clock are required")
	}
	members := make([]int, len(cfg.Members))
	copy(members, cfg.Members)
	cfg.Members = members
	memberPos := make(map[int]int, len(members))
	for i, id := range members {
		memberPos[id] = i
	}
	b := &Binary{
		pipeline: pipeline{
			scheme:   scheme,
			clock:    clock,
			feedback: feedback,
			tr:       tr,
		},
		cfg:       cfg,
		onDecide:  onDecide,
		memberPos: memberPos,
		marks:     make([]bool, len(members)),
		marked:    make([]int, 0, len(members)),
		scrR:      make([]int, 0, len(cfg.Members)),
		scrNR:     make([]int, 0, len(cfg.Members)),
	}
	b.expire = b.closeWindow
	return b, nil
}

// Windows returns how many aggregation windows have completed.
func (b *Binary) Windows() int { return b.decided }

// Deliver hands the aggregator one event report that survived the channel.
// The first report of a window opens it and schedules the T_out expiry.
// A report from outside cfg.Members still opens the window but casts no
// vote.
//
//hot:path
func (b *Binary) Deliver(nodeID int) {
	pos, ok := b.memberPos[nodeID]
	if !ok {
		pos = -1
	}
	b.deliver(nodeID, pos)
}

// DeliverAt is Deliver for the member at index pos of cfg.Members, for
// callers that already hold the position and so skip the memberPos
// lookup. pos must be in [0, len(cfg.Members)).
//
//hot:path
func (b *Binary) DeliverAt(pos int) {
	b.deliver(b.cfg.Members[pos], pos)
}

// deliver marks nodeID, at member position pos (-1 for a non-member), in
// the open window, opening one first if none is. A report into an
// already-open window allocates nothing.
func (b *Binary) deliver(nodeID, pos int) {
	if b.closed {
		return
	}
	if b.scheme.Isolated(nodeID) {
		return // the sink no longer listens to isolated nodes
	}
	if !b.windowOpen {
		b.openWindow(b.cfg.Tout, b.expire)
	}
	if pos >= 0 && !b.marks[pos] {
		b.marks[pos] = true
		b.marked = append(b.marked, pos)
	}
	if b.tr == nil {
		return // untraced (the serving path): skip two calls per report
	}
	if b.tr.Verbose() {
		b.tr.Emit(float64(b.clock.Now()), trace.KindReportDelivered, nodeID, "binary report")
	} else {
		b.tr.Hit(trace.KindReportDelivered)
	}
}

// closeWindow runs the §3.1 vote at T_out expiry.
func (b *Binary) closeWindow() {
	if b.closed {
		return
	}
	reporters := b.scrR[:0]
	silent := b.scrNR[:0]
	for i, id := range b.cfg.Members {
		switch {
		case b.marks[i]:
			reporters = append(reporters, id)
		case b.cfg.Alive != nil && !b.cfg.Alive(id):
			// Crashed or depleted: silence carries no information, so the
			// member neither votes "no event" nor has its trust judged.
		default:
			silent = append(silent, id)
		}
	}
	var dec core.BinaryDecision
	if b.cfg.Decider != nil {
		dec = b.cfg.Decider.DecideAndSettle(reporters, silent)
		// The decision broadcast still reaches every member.
		b.relay(dec)
	} else {
		dec = b.scheme.Arbitrate(reporters, silent)
		b.settle(dec)
	}
	b.decided++
	out := BinaryOutcome{
		TriggerTime: b.windowTrigger,
		DecideTime:  b.clock.Now(),
		Decision:    dec,
	}
	if b.tr.Verbose() {
		b.tr.Emit(float64(b.clock.Now()), trace.KindDecision, -1, "%v", dec)
	} else {
		b.tr.Hit(trace.KindDecision)
	}
	b.windowOpen = false
	for _, pos := range b.marked {
		b.marks[pos] = false
	}
	b.marked = b.marked[:0]
	b.scrR, b.scrNR = reporters, silent
	if b.onDecide != nil {
		b.onDecide(out)
	}
}

// Positions exposes the CH's knowledge of cluster-node locations (§2: "the
// locations of the nodes at a given time are known to the CHs").
type Positions interface {
	// Pos returns the node's position and whether the node is known.
	Pos(nodeID int) (geo.Point, bool)
	// IDs returns all known node IDs.
	IDs() []int
}

// PosMap is a map-backed Positions implementation.
type PosMap map[int]geo.Point

// Pos implements Positions.
func (m PosMap) Pos(nodeID int) (geo.Point, bool) {
	p, ok := m[nodeID]
	return p, ok
}

// IDs implements Positions, returning the node IDs in ascending order
// so callers iterating them stay deterministic.
func (m PosMap) IDs() []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
