package engine

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/leach"
	"github.com/tibfit/tibfit/internal/rng"
	"github.com/tibfit/tibfit/internal/sim"
)

// engineParams mirrors the decision package's conformance parameters so
// the same threshold semantics are exercised through the instance.
func engineParams() decision.Params {
	return decision.Params{Trust: core.Params{Lambda: 0.25, FaultRate: 0.1, RemovalThreshold: 0.5}}
}

func members(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// simInstance builds an instance driven by a fresh sim kernel.
func simInstance(t *testing.T, scheme string, tout sim.Duration, n int) (*Instance, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	inst, err := New(Config{
		Scheme:  scheme,
		Params:  engineParams(),
		Tout:    tout,
		Members: members(n),
		Clock:   k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, k
}

// TestInstanceConformanceAllSchemes runs the scheme-conformance
// contract through engine.Instance for every registered scheme: a
// seeded report stream drives windows on a sim kernel, and the
// instance's trust observables must honour the bounds, isolation, and
// listing rules the decision-level harness pins.
func TestInstanceConformanceAllSchemes(t *testing.T) {
	const nMembers = 7
	threshold := engineParams().Trust.RemovalThreshold
	for _, name := range decision.Names() {
		t.Run(name, func(t *testing.T) {
			inst, k := simInstance(t, name, 1, nMembers)
			defer inst.Close()
			// 120 windows: in round r, node i reports iff (r+i)%3 != 0,
			// so every node is judged both ways many times and node
			// behaviour differs enough to cross thresholds.
			for r := 0; r < 120; r++ {
				for i := 0; i < nMembers; i++ {
					if (r+i)%3 == 0 {
						continue
					}
					err := inst.Report(i)
					if err != nil && !errors.Is(err, ErrUnknownNode) {
						t.Fatal(err)
					}
				}
				k.RunAll()
				for i := 0; i < nMembers; i++ {
					ti := inst.TI(i)
					if ti < 0 || ti > 1 || math.IsNaN(ti) {
						t.Fatalf("round %d: TI(%d) out of [0,1]: %v", r, i, ti)
					}
				}
			}
			if got := inst.DecisionCount(); got == 0 {
				t.Fatal("no decisions after 120 report rounds")
			}
			iso := inst.IsolatedNodes()
			if !sort.IntsAreSorted(iso) {
				t.Fatalf("IsolatedNodes not sorted: %v", iso)
			}
			table := inst.TrustTable()
			if len(table) != nMembers {
				t.Fatalf("trust table has %d rows, want %d", len(table), nMembers)
			}
			for _, row := range table {
				if row.TI <= threshold && !row.Isolated && row.TI < 1 {
					// A judged node at or below the threshold must be
					// isolated; TI 1 means the scheme is stateless.
					t.Fatalf("node %d at TI %v <= %v but not isolated", row.Node, row.TI, threshold)
				}
			}
		})
	}
}

// streamEvent is one report in the seeded equivalence stream.
type streamEvent struct {
	at   sim.Time
	node int
}

// seededStream generates report arrivals with irregular spacing so no
// report ever coincides exactly with a window expiry (coincidence
// semantics get their own dedicated tests).
func seededStream(seed int64, n, nodes int) []streamEvent {
	src := rng.New(seed)
	out := make([]streamEvent, n)
	t := sim.Time(0)
	for i := range out {
		t = t.Add(sim.Duration(0.05 + 0.4*src.Float64()))
		out[i] = streamEvent{at: t, node: src.Intn(nodes)}
	}
	return out
}

// flatDecision strips a Decision to the fields both drivers must agree
// on bit for bit.
type flatDecision struct {
	occurred           bool
	ctiFor, ctiAgainst float64
	reporters, silent  string
}

func flatten(d core.BinaryDecision) flatDecision {
	return flatDecision{
		occurred:   d.Occurred,
		ctiFor:     d.CTIFor,
		ctiAgainst: d.CTIAgainst,
		reporters:  intsKey(d.Reporters),
		silent:     intsKey(d.Silent),
	}
}

func intsKey(ids []int) string {
	key := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		key = append(key, byte(id), byte(id>>8), ',')
	}
	return string(key)
}

// TestEngineMatchesBatchSim feeds one seeded report stream through the
// batch path (aggregator.Binary directly on a sim kernel) and through
// engine.Instance on a stub-driven WallClock, and asserts both make
// identical decisions and end with identical trust tables — for every
// registered scheme. This is the refactor's payoff criterion: the
// online engine is the batch pipeline, not a reimplementation.
func TestEngineMatchesBatchSim(t *testing.T) {
	const (
		nMembers = 9
		nReports = 400
		tout     = sim.Duration(0.7)
		seed     = 42
	)
	stream := seededStream(seed, nReports, nMembers)
	for _, name := range decision.Names() {
		t.Run(name, func(t *testing.T) {
			// Batch: deliveries scheduled as kernel events, windows and
			// expiries interleaved by the kernel's total order.
			k := sim.New()
			scheme, err := decision.New(name, engineParams())
			if err != nil {
				t.Fatal(err)
			}
			var batch []flatDecision
			agg, err := aggregator.NewBinary(aggregator.BinaryConfig{
				Tout: tout, Members: members(nMembers),
			}, scheme, k, func(o aggregator.BinaryOutcome) {
				batch = append(batch, flatten(o.Decision))
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range stream {
				ev := ev
				if _, err := k.At(ev.at, func() { agg.Deliver(ev.node) }); err != nil {
					t.Fatal(err)
				}
			}
			k.RunAll()

			// Online: the same stream through an Instance on a stubbed
			// wall clock, advanced to each arrival in order.
			w, advance := stubClock()
			defer w.Close()
			var online []flatDecision
			inst, err := New(Config{
				Scheme:  name,
				Params:  engineParams(),
				Tout:    tout,
				Members: members(nMembers),
				Clock:   w,
				OnDecision: func(d Decision) {
					online = append(online, flatDecision{
						occurred:   d.Occurred,
						ctiFor:     d.CTIFor,
						ctiAgainst: d.CTIAgainst,
						reporters:  intsKey(d.Reporters),
						silent:     intsKey(d.Silent),
					})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			for _, ev := range stream {
				advance(float64(ev.at))
				w.fire() // run any expiry due before this arrival
				if err := inst.Report(ev.node); err != nil {
					t.Fatal(err)
				}
			}
			advance(float64(stream[len(stream)-1].at) + float64(tout) + 1)
			w.fire() // drain the final window

			if len(batch) != len(online) {
				t.Fatalf("batch made %d decisions, online %d", len(batch), len(online))
			}
			for i := range batch {
				if batch[i] != online[i] {
					t.Fatalf("decision %d diverges:\n batch  %+v\n online %+v", i, batch[i], online[i])
				}
			}
			for i := 0; i < nMembers; i++ {
				//lint:allow floateq equivalence demands bit-identical trust, not approximate
				if scheme.TI(i) != inst.TI(i) {
					t.Fatalf("final TI(%d): batch %v, online %v", i, scheme.TI(i), inst.TI(i))
				}
			}
		})
	}
}

// TestSameInstantOrderSimKernel pins the documented (time, seq)
// resolution of a report landing exactly on its window's expiry, on the
// sim-kernel driver: a report event scheduled before the window opened
// is delivered first and joins the closing window; one scheduled after
// the expiry was armed fires second and opens the next window.
func TestSameInstantOrderSimKernel(t *testing.T) {
	const tout = sim.Duration(5)

	// Case a: the t=5 report was scheduled before the window opened, so
	// its seq precedes the expiry's — it joins window 1.
	inst, k := simInstance(t, decision.SchemeTIBFIT, tout, 2)
	if _, err := k.At(0, func() { _ = inst.Report(0) }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.At(5, func() { _ = inst.Report(1) }); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	ds := inst.DecisionsSince(0)
	if len(ds) != 1 || intsKey(ds[0].Reporters) != intsKey([]int{0, 1}) {
		t.Fatalf("pre-scheduled same-instant report: decisions %+v, want one window with reporters [0 1]", ds)
	}
	inst.Close()

	// Case b: the t=5 report is scheduled at t=2, after the expiry was
	// armed at t=0 — the expiry's seq precedes it, so window 1 closes
	// with reporter 0 alone and the report opens window 2.
	inst, k = simInstance(t, decision.SchemeTIBFIT, tout, 2)
	defer inst.Close()
	if _, err := k.At(0, func() { _ = inst.Report(0) }); err != nil {
		t.Fatal(err)
	}
	if _, err := k.At(2, func() {
		if _, err := k.At(5, func() { _ = inst.Report(1) }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	ds = inst.DecisionsSince(0)
	if len(ds) != 2 {
		t.Fatalf("post-armed same-instant report: %d decisions, want 2 (expiry first, report reopens)", len(ds))
	}
	if intsKey(ds[0].Reporters) != intsKey([]int{0}) || intsKey(ds[1].Reporters) != intsKey([]int{1}) {
		t.Fatalf("post-armed same-instant report: windows %+v, want [0] then [1]", ds)
	}
}

// TestSameInstantOrderWallClock pins the same contract on the wall
// driver, where ingest is a direct call rather than a scheduled event:
// a Report that reaches the instance before the due expiry is processed
// joins the closing window; one after it opens the next.
func TestSameInstantOrderWallClock(t *testing.T) {
	const tout = sim.Duration(5)
	build := func(t *testing.T) (*Instance, *WallClock, func(float64)) {
		w, advance := stubClock()
		inst, err := New(Config{
			Scheme: decision.SchemeTIBFIT, Params: engineParams(),
			Tout: tout, Members: members(2), Clock: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst, w, advance
	}

	// Case a: ingest wins the race to the instant — joins window 1.
	inst, w, advance := build(t)
	_ = inst.Report(0)
	advance(5)
	_ = inst.Report(1) // expiry not yet processed
	w.fire()
	ds := inst.DecisionsSince(0)
	if len(ds) != 1 || intsKey(ds[0].Reporters) != intsKey([]int{0, 1}) {
		t.Fatalf("ingest-before-expiry: decisions %+v, want one window with reporters [0 1]", ds)
	}
	inst.Close()

	// Case b: the expiry is processed first — the report opens window 2.
	inst, w, advance = build(t)
	defer inst.Close()
	_ = inst.Report(0)
	advance(5)
	w.fire()
	_ = inst.Report(1)
	advance(11)
	w.fire()
	ds = inst.DecisionsSince(0)
	if len(ds) != 2 || intsKey(ds[0].Reporters) != intsKey([]int{0}) ||
		intsKey(ds[1].Reporters) != intsKey([]int{1}) {
		t.Fatalf("expiry-before-ingest: decisions %+v, want [0] then [1]", ds)
	}
}

func TestInstanceRejectsBadConfig(t *testing.T) {
	k := sim.New()
	if _, err := New(Config{Scheme: "tibfit", Params: engineParams(), Tout: 1, Members: members(2)}); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := New(Config{Scheme: "magic", Params: engineParams(), Tout: 1, Members: members(2), Clock: k}); !errors.Is(err, decision.ErrUnknownScheme) {
		t.Fatalf("unknown scheme: err = %v, want ErrUnknownScheme", err)
	}
	if _, err := New(Config{Scheme: "tibfit", Params: engineParams(), Tout: 0, Members: members(2), Clock: k}); err == nil {
		t.Fatal("zero Tout accepted")
	}
	if _, err := New(Config{Scheme: "tibfit", Tout: 1, Members: members(2), Clock: k}); err == nil {
		t.Fatal("zero trust params accepted")
	}
}

func TestInstanceRejectsUnknownNodeAndClosed(t *testing.T) {
	inst, _ := simInstance(t, decision.SchemeTIBFIT, 1, 3)
	if err := inst.Report(99); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown node: err = %v, want ErrUnknownNode", err)
	}
	// A batch keeps going past unknown nodes: 99 is one bad row, not a
	// poisoned batch, so 0, 1, and 2 all land.
	if res := inst.ReportMany([]int{0, 1, 99, 2}); res.Accepted != 3 ||
		res.FirstErr != 2 || !errors.Is(res.Err, ErrUnknownNode) {
		t.Fatalf("ReportMany = %+v, want Accepted 3, FirstErr 2, ErrUnknownNode", res)
	}
	if res := inst.ReportMany([]int{0, 1, 2}); res.Accepted != 3 || res.FirstErr != -1 || res.Err != nil {
		t.Fatalf("clean batch: ReportMany = %+v, want Accepted 3, FirstErr -1, nil error", res)
	}
	inst.Close()
	inst.Close() // idempotent
	if err := inst.Report(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: err = %v, want ErrClosed", err)
	}
	// A closed instance rejects a batch from its first row, member or not.
	for _, batch := range [][]int{{0, 1}, {2, 99, 1}, {99, 2, 1}} {
		if res := inst.ReportMany(batch); res.Accepted != 0 || res.FirstErr != 0 || !errors.Is(res.Err, ErrClosed) {
			t.Fatalf("closed batch %v: ReportMany = %+v, want Accepted 0, FirstErr 0, ErrClosed", batch, res)
		}
	}
	if _, err := inst.SealedSnapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed snapshot: err = %v, want ErrClosed", err)
	}
}

// runWindows drives n single-reporter windows through the instance.
func runWindows(t *testing.T, inst *Instance, k *sim.Kernel, n, reporter int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := inst.Report(reporter); err != nil {
			t.Fatal(err)
		}
		k.RunAll()
	}
}

func TestInstanceSnapshotRestoreRoundTrip(t *testing.T) {
	for _, name := range decision.Names() {
		t.Run(name, func(t *testing.T) {
			inst, k := simInstance(t, name, 1, 4)
			defer inst.Close()
			// Node 3 reports alone repeatedly: the silent majority wins,
			// so node 3 is judged wrong and loses trust.
			runWindows(t, inst, k, 6, 3)
			blob, err := inst.SealedSnapshot()
			if err != nil {
				t.Fatal(err)
			}

			restored, _ := simInstance(t, name, 1, 4)
			defer restored.Close()
			if err := restored.RestoreSealed(blob); err != nil {
				t.Fatal(err)
			}
			want, got := inst.TrustTable(), restored.TrustTable()
			for i := range want {
				//lint:allow floateq restore must reproduce persisted trust exactly
				if want[i] != got[i] {
					t.Fatalf("trust row %d: restored %+v, want %+v", i, got[i], want[i])
				}
			}

			// Replaying the same blob is stale: versions are monotonic.
			if err := restored.RestoreSealed(blob); !errors.Is(err, ErrSnapshotStale) {
				t.Fatalf("replay: err = %v, want ErrSnapshotStale", err)
			}
		})
	}
}

func TestInstanceRestoreRejectsBadBlobs(t *testing.T) {
	inst, k := simInstance(t, decision.SchemeTIBFIT, 1, 4)
	defer inst.Close()
	runWindows(t, inst, k, 3, 2)
	blob, err := inst.SealedSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh, _ := simInstance(t, decision.SchemeTIBFIT, 1, 4)
	defer fresh.Close()

	// Tampered: flip one payload byte, checksum verification fails.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0x40
	if err := fresh.RestoreSealed(bad); !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Fatalf("tampered blob: err = %v, want ErrSnapshotCorrupt", err)
	}

	// Wrong role: a term-end upload blob is not restorable state.
	station, err := leach.NewStation(engineParams().Trust)
	if err != nil {
		t.Fatal(err)
	}
	upload := core.SealSnapshot(station.SealKey(), 9, core.RoleUpload, map[int]core.Record{1: {V: 2}})
	if err := fresh.RestoreSealed(upload); !errors.Is(err, leach.ErrSnapshotReplay) {
		t.Fatalf("upload-role blob: err = %v, want ErrSnapshotReplay", err)
	}

	// Truncated.
	if err := fresh.RestoreSealed(blob[:3]); !errors.Is(err, core.ErrSnapshotCorrupt) {
		t.Fatalf("truncated blob: err = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestInstanceDecisionRing(t *testing.T) {
	k := sim.New()
	inst, err := New(Config{
		Scheme: decision.SchemeTIBFIT, Params: engineParams(),
		Tout: 1, Members: members(2), Clock: k, DecisionLog: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	// Both members report every window: everyone is judged correct, so
	// nobody decays into isolation and all ten windows open.
	for i := 0; i < 10; i++ {
		if res := inst.ReportMany([]int{0, 1}); res.Err != nil {
			t.Fatal(res.Err)
		}
		k.RunAll()
	}
	if got := inst.DecisionCount(); got != 10 {
		t.Fatalf("DecisionCount = %d, want 10", got)
	}
	ds := inst.DecisionsSince(0)
	if len(ds) != 4 || ds[0].Seq != 7 || ds[3].Seq != 10 {
		t.Fatalf("ring window: got %d decisions starting at seq %d, want 4 starting at 7",
			len(ds), ds[0].Seq)
	}
	ds = inst.DecisionsSince(8)
	if len(ds) != 2 || ds[0].Seq != 9 || ds[1].Seq != 10 {
		t.Fatalf("DecisionsSince(8): %+v, want seqs 9, 10", ds)
	}
	if ds := inst.DecisionsSince(10); ds != nil {
		t.Fatalf("DecisionsSince(latest) = %+v, want nil", ds)
	}
}
