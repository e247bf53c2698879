package main

import (
	"encoding/json"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"github.com/tibfit/tibfit/internal/engine"
)

// The four workloads, by the names BENCHMARK.json and later changes cite.
const (
	wServeIngest = "serve-ingest"
	wServeMixed  = "serve-mixed"
	wCampaign    = "campaign-figures"
	wField       = "field-100k"
)

var workloads = []string{wServeIngest, wServeMixed, wCampaign, wField}

// defaultSeed is the workload seed when --seed is not given. The field
// workload's recorded result (fieldGolden) is pinned to it.
const defaultSeed = 1

// tenantSpec is one tenant the serve workloads create.
type tenantSpec struct {
	Name   string
	Scheme string
	Nodes  int
	Shards int
	Tout   float64
	// FaultRate and RemovalThreshold are the tenant's f_r and isolation
	// threshold; zero keeps the server defaults (0.1 and 0.3).
	FaultRate        float64
	RemovalThreshold float64
}

// memberIDs is the tenant's population, 0..Nodes-1, as the server
// generates it from the Nodes field.
func (t tenantSpec) memberIDs() []int {
	ids := make([]int, t.Nodes)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// serveShape is a serve workload's tenant layout.
type serveShape struct {
	Tenants []tenantSpec
}

// ingestShape: 4 tenants × 32 nodes × 4 shards, so windows are 8 members
// wide and per-report ingest, not window close, is the work.
func ingestShape() serveShape {
	var s serveShape
	for i := range 4 {
		s.Tenants = append(s.Tenants, tenantSpec{Name: "ingest" + strconv.Itoa(i),
			Scheme: "tibfit", Nodes: 32, Shards: 4, Tout: 5})
	}
	return s
}

// mixedShape: the paper's binary experiment at 256-member windows, one
// tenant on each of the two trust schemes. f_r is 0.3 and the removal
// threshold 0.2. Honest nodes miss 5% of events, and under TIBFIT's
// trust walk (v −= f_r when judged correct, v += 1 − f_r when judged
// faulty) a run of misses can carry an honest node past the removal
// threshold within a 13.5 s pass. That happened at the server defaults
// (f_r 0.1, threshold 0.3) to 14 of 768 honest nodes on the default
// seed, at f_r 0.2 on 2 of 10 seeds, and at f_r 0.3 on 1 of 10 (seed
// 304, node 287). Those isolations are the scheme's false positives, not
// a server fault, so the "no honest node isolated" check would measure
// luck. Lowering the threshold to 0.2 raises the walk's barrier from
// v ≈ 4.8 to v ≈ 6.4. Replaying the miss walk over the generated event
// streams, the largest honest excursion is v ≈ 3–3.7 on typical seeds
// and 5.5 on seed 304, and none of 1000 other seeds reached 4.8. The
// faulty quarter still crosses the barrier within the first few hundred
// bursts.
func mixedShape() serveShape {
	return serveShape{Tenants: []tenantSpec{
		{Name: "mixed0", Scheme: "tibfit", Nodes: 1024, Shards: 4, Tout: 5, FaultRate: 0.3, RemovalThreshold: 0.2},
		{Name: "mixed1", Scheme: "dynamic-trust", Nodes: 1024, Shards: 4, Tout: 5, FaultRate: 0.3, RemovalThreshold: 0.2},
	}}
}

// batchSize is the line-format batch of serve-ingest.
const batchSize = 256

// ingestPoolSize is how many distinct batches the ingest stream cycles
// through: enough that a batch's node order never repeats within a
// window, small enough to pre-encode in milliseconds.
const ingestPoolSize = 1024

// ingestBatch is one line-format request of the ingest stream.
type ingestBatch struct {
	Tenant int
	Nodes  []int
	Body   []byte // the line-format encoding of Nodes
}

// rngFor returns the generator's random stream for one (seed, workload,
// purpose) triple. Every generated input is drawn from such a stream, so
// the inputs are a pure function of the seed and the workload.
func rngFor(seed uint64, workload, purpose string) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, b := range []byte(workload + "/" + purpose) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// genIngestPool draws the ingest stream's batch pool: batch k goes to
// tenant k mod 4 and holds 256 uniformly drawn member IDs of that tenant.
func genIngestPool(seed uint64) []ingestBatch {
	shape := ingestShape()
	r := rngFor(seed, wServeIngest, "batches")
	pool := make([]ingestBatch, ingestPoolSize)
	for k := range pool {
		t := k % len(shape.Tenants)
		nodes := make([]int, batchSize)
		for i := range nodes {
			nodes[i] = r.IntN(shape.Tenants[t].Nodes)
		}
		pool[k] = ingestBatch{Tenant: t, Nodes: nodes, Body: encodeLines(nil, nodes)}
	}
	return pool
}

// encodeLines appends the line-format wire encoding of nodes to dst: one
// decimal ID per LF-terminated line.
func encodeLines(dst []byte, nodes []int) []byte {
	for _, n := range nodes {
		dst = strconv.AppendInt(dst, int64(n), 10)
		dst = append(dst, '\n')
	}
	return dst
}

// opKind is what one scheduled serve-mixed operation does.
type opKind uint8

const (
	opIngestBatch opKind = iota // line-format report batch (serve-ingest)
	opEvent                     // JSON ground-truth event burst
	opPhantom                   // JSON phantom burst from faulty nodes
	opPoll                      // GET decisions?since=
	opTrust                     // GET trust
	opSnapshot                  // GET snapshot
	opHealth                    // GET /healthz (the traced run's transport pass)
)

// op is one scheduled request of an open-loop stream. At is its send
// time relative to the stream start; latency is timed from it.
type op struct {
	At     time.Duration
	Kind   opKind
	Tenant int
	Shard  int
	Nodes  []int
	Body   []byte
}

// Mixed workload timing: a ground-truth event per location every 20 ms,
// a phantom burst half a period later, decision polls every 100 ms, the
// trust table every 250 ms and a sealed snapshot every 2 s.
const (
	mixedPeriod    = 20 * time.Millisecond
	mixedPoll      = 100 * time.Millisecond
	mixedTrust     = 250 * time.Millisecond
	mixedSnapshot  = 2 * time.Second
	honestReportP  = 0.95
	faultyReportP  = 0.5
	phantomReportP = 0.5
	faultyShare    = 4 // one node in four is faulty
)

// mixedPlan is the generated serve-mixed stream plus its ground truth.
type mixedPlan struct {
	Ops    []op
	Faulty []map[int]bool // per tenant
}

// faultySet draws a tenant's fixed faulty quarter.
func faultySet(r *rand.Rand, nodes int) map[int]bool {
	perm := r.Perm(nodes)
	out := make(map[int]bool, nodes/faultyShare)
	for _, id := range perm[:nodes/faultyShare] {
		out[id] = true
	}
	return out
}

// genMixed draws the serve-mixed stream for a pass of the given length.
func genMixed(seed uint64, length time.Duration) mixedPlan {
	shape := mixedShape()
	r := rngFor(seed, wServeMixed, "stream")
	plan := mixedPlan{}
	members := make([][][]int, len(shape.Tenants))
	for ti, t := range shape.Tenants {
		plan.Faulty = append(plan.Faulty, faultySet(r, t.Nodes))
		members[ti] = engine.ShardMembers(t.memberIDs(), t.Shards)
	}
	locations := 0
	for _, t := range shape.Tenants {
		locations += t.Shards
	}
	stagger := mixedPeriod / 2 / time.Duration(locations)
	for p := time.Duration(0); p+mixedPeriod <= length; p += mixedPeriod {
		loc := 0
		for ti := range shape.Tenants {
			for s, part := range members[ti] {
				at := p + time.Duration(loc)*stagger
				loc++
				var ev, ph []int
				for _, id := range part {
					if plan.Faulty[ti][id] {
						if r.Float64() < faultyReportP {
							ev = append(ev, id)
						}
						if r.Float64() < phantomReportP {
							ph = append(ph, id)
						}
					} else if r.Float64() < honestReportP {
						ev = append(ev, id)
					}
				}
				if len(ph) == 0 {
					ph = append(ph, firstFaulty(part, plan.Faulty[ti]))
				}
				r.Shuffle(len(ev), func(i, j int) { ev[i], ev[j] = ev[j], ev[i] })
				plan.Ops = append(plan.Ops,
					op{At: at, Kind: opEvent, Tenant: ti, Shard: s, Nodes: ev, Body: encodeJSON(ev)},
					op{At: at + mixedPeriod/2, Kind: opPhantom, Tenant: ti, Shard: s, Nodes: ph, Body: encodeJSON(ph)})
			}
		}
	}
	for ti := range shape.Tenants {
		off := time.Duration(ti) * time.Millisecond
		for at := mixedPoll + off; at < length; at += mixedPoll {
			plan.Ops = append(plan.Ops, op{At: at, Kind: opPoll, Tenant: ti})
		}
		for at := mixedTrust + 2*off; at < length; at += mixedTrust {
			plan.Ops = append(plan.Ops, op{At: at, Kind: opTrust, Tenant: ti})
		}
	}
	for k, at := 0, mixedSnapshot; at < length; k, at = k+1, at+mixedSnapshot {
		plan.Ops = append(plan.Ops, op{At: at, Kind: opSnapshot, Tenant: k % len(shape.Tenants)})
	}
	sort.SliceStable(plan.Ops, func(i, j int) bool { return plan.Ops[i].At < plan.Ops[j].At })
	return plan
}

func firstFaulty(part []int, faulty map[int]bool) int {
	for _, id := range part {
		if faulty[id] {
			return id
		}
	}
	return part[0]
}

// encodeJSON renders the classic JSON report body {"nodes":[...]}.
func encodeJSON(nodes []int) []byte {
	b, err := json.Marshal(struct {
		Nodes []int `json:"nodes"`
	}{nodes})
	if err != nil {
		panic(err) // []int always marshals
	}
	return b
}

// rung is one offered rate of the serve-ingest ladder.
type rung struct {
	Rate      float64 // reports per second
	Length    time.Duration
	Reference bool
}

// ingestLadder is the offered-rate ladder, from well below to past the
// ~3.3M reports/s the two-connection generator and the one-P server
// reach together on a 2-vCPU host. The reference rung gets half the run.
// It sits at a quarter of capacity: at half, the server's CPU per report
// and the tail latency spread wider than the benchmark's bounds from run
// to run.
func ingestLadder(seconds float64) []rung {
	total := time.Duration(seconds * float64(time.Second))
	return []rung{
		{Rate: 200_000, Length: total / 10},
		{Rate: 800_000, Length: total * 5 / 10, Reference: true},
		{Rate: 2_400_000, Length: total * 15 / 100},
		{Rate: 3_200_000, Length: total * 15 / 100},
		{Rate: 4_800_000, Length: total / 10},
	}
}

// ingestOps schedules one rung: batch k is due at k·256/rate, cycling
// through the batch pool from offset start.
func ingestOps(pool []ingestBatch, start int, g rung) []op {
	n := int(g.Rate * g.Length.Seconds() / batchSize)
	gap := float64(time.Second) * batchSize / g.Rate
	ops := make([]op, n)
	for k := range ops {
		b := &pool[(start+k)%len(pool)]
		ops[k] = op{At: time.Duration(float64(k) * gap), Kind: opIngestBatch,
			Tenant: b.Tenant, Nodes: b.Nodes, Body: b.Body}
	}
	return ops
}
