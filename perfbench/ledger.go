package main

// The traced run: the per-layer ledger. The benchmark replays each
// workload's generated stream layer by layer through every package's
// public entry point — serve.Handler, engine.Instance, aggregator.Binary,
// a decision.Scheme, metrics.Histogram — and records a span around each
// call. A replayed call's logical parent is the call one layer up that
// handled the same request, so a layer's self time is its span minus the
// spans of the layer below for the same request.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tibfit/tibfit/internal/aggregator"
	"github.com/tibfit/tibfit/internal/core"
	"github.com/tibfit/tibfit/internal/decision"
	"github.com/tibfit/tibfit/internal/engine"
	"github.com/tibfit/tibfit/internal/metrics"
	"github.com/tibfit/tibfit/internal/serve"
	"github.com/tibfit/tibfit/internal/sim"
)

// ledgerTolerance is the largest |ledger.unexplained_share| the
// benchmark accepts: the share of the server's CPU per report that the
// replayed layers, the live server's GC and the /healthz transport
// pass together fail to account for, or over-account for. It was
// 0.08–0.10 on a 2-vCPU host. The layers are measured seconds apart,
// and that host's speed drifts by up to a quarter between them.
const ledgerTolerance = 0.3

// Replay sizes: enough calls that per-call medians and sums are steady,
// few enough that a traced run stays well inside its time limit.
const (
	replayBatches   = 1500                    // ingest batches per layer replay
	mixedReplay     = 1500 * time.Millisecond // of the serve-mixed stream
	readRepeats     = 200                     // read-path calls per endpoint
	snapshotRepeats = 50
	refPassSeconds  = 2.0 // the out-of-process reference pass of a traced run
	profileSpan     = 2 * time.Second
)

// span is one recorded call.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`      // request id: the stream position replayed
	Parent int32  `json:"parent"`   // index of the parent span, -1 for none
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"` // reports (or calls) the span covers
}

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced pass runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, req int64, parent int32, items int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Items: items,
		Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// record adds a span for a call of duration d that has just returned.
func (t *tracer) record(name string, d time.Duration) {
	if t != nil {
		end := int64(time.Since(t.epoch))
		t.spans = append(t.spans, span{Name: name, Parent: -1, Start: end - int64(d), End: end, Items: 1})
	}
}

// setItems sets a span's item count once the call has returned.
func (t *tracer) setItems(id int32, n int) {
	if t != nil {
		t.spans[id].Items = n
	}
}

// layerStats sums a span name's total and self time, its items, and the
// per-span durations.
type layerStats struct {
	Total, Self time.Duration
	Items       int
	Durs        []float64 // ns
}

func (t *tracer) stats(name string) layerStats {
	child := make(map[int32]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var st layerStats
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.Total += d
		st.Self += d - child[int32(i)]
		st.Items += s.Items
		st.Durs = append(st.Durs, float64(d))
	}
	return st
}

func (st layerStats) nsPerItem() float64 { return float64(st.Total) / float64(max(st.Items, 1)) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocCounter reads the process's heap allocation count.
type allocCounter struct{ s []rtmetrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	rtmetrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// discardWriter is the in-memory ResponseWriter the handler-direct
// replays write into.
type discardWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

func (w *discardWriter) reset() {
	w.code = http.StatusOK
	clear(w.h)
}

// newInProcessServer is an in-process serve.Server with the shape's
// tenants, the handler the daemon mounts.
func newInProcessServer(shape serveShape) (*serve.Server, http.Handler, error) {
	srv := serve.NewServer(serve.Config{})
	for _, t := range shape.Tenants {
		if err := srv.CreateTenant(t.Name, serve.TenantConfig{Scheme: t.Scheme, Tout: t.Tout,
			Nodes: t.Nodes, Shards: t.Shards, FaultRate: t.FaultRate, RemovalThreshold: t.RemovalThreshold}); err != nil {
			srv.Close()
			return nil, nil, err
		}
	}
	return srv, srv.Handler(), nil
}

// newEngines builds one engine.Instance per tenant on the given clocks.
func newEngines(shape serveShape, clock func() engine.Clock) ([]*engine.Instance, error) {
	var out []*engine.Instance
	for _, t := range shape.Tenants {
		inst, err := engine.New(engine.Config{
			Scheme: t.Scheme,
			Params: trustParams(t),
			Tout:   sim.Duration(t.Tout), Members: t.memberIDs(), Shards: t.Shards, Clock: clock(),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// trustParams are a tenant's trust parameters with the server's
// defaults (λ 0.25, f_r 0.1, removal threshold 0.3) filled in.
func trustParams(t tenantSpec) decision.Params {
	p := core.Params{Lambda: 0.25, FaultRate: t.FaultRate, RemovalThreshold: t.RemovalThreshold}
	if p.FaultRate == 0 {
		p.FaultRate = 0.1
	}
	if p.RemovalThreshold == 0 {
		p.RemovalThreshold = 0.3
	}
	return decision.Params{Trust: p}
}

func wallClock() engine.Clock { return engine.NewWallClock(serve.DefaultUnit) }

func closeAll(insts []*engine.Instance) {
	for _, in := range insts {
		in.Close()
	}
}

// replayCounts are the allocation counts of one layer replay.
type replayCounts struct {
	ServeAllocs, EngineAllocs, DeliverAllocs uint64
	Reports                                  int
}

// replayIngest replays the first replayBatches batches of the ingest
// stream through the handler, a bare engine per tenant, and a bare
// aggregator per shard on a sim kernel advanced at the reference rate's
// batch gap. It returns the allocation counts.
func replayIngest(tr *tracer, seed uint64) (replayCounts, error) {
	var rc replayCounts
	shape := ingestShape()
	pool := genIngestPool(seed)
	ref := ingestLadder(10)[1]
	ref.Length = time.Duration(float64(replayBatches*batchSize) / ref.Rate * float64(time.Second))
	batches := ingestOps(pool, 0, ref)
	ac := newAllocCounter()

	// generator: line encoding.
	var buf []byte
	for i := range batches {
		id := tr.begin("loadgen.encode", int64(i), -1, batchSize)
		buf = encodeLines(buf[:0], batches[i].Nodes)
		tr.end(id)
	}

	// serve: handler-direct, one span per request.
	srv, h, err := newInProcessServer(shape)
	if err != nil {
		return rc, err
	}
	reqs := make([]*http.Request, len(batches))
	for i, b := range batches {
		reqs[i], _ = http.NewRequest(http.MethodPost, "/v1/tenants/"+shape.Tenants[b.Tenant].Name+"/reports/batch",
			bytes.NewReader(b.Body))
	}
	w := &discardWriter{h: http.Header{}}
	serveSpan := make([]int32, len(batches))
	a0 := ac.read()
	for i, r := range reqs {
		w.reset()
		serveSpan[i] = tr.begin("serve.batch", int64(i), -1, batchSize)
		h.ServeHTTP(w, r)
		tr.end(serveSpan[i])
		if w.code != http.StatusOK {
			srv.Close()
			return rc, fmt.Errorf("replayed batch %d: status %d %s", i, w.code, w.body)
		}
	}
	rc.ServeAllocs = ac.read() - a0
	srv.Close()

	// engine: ReportMany on bare instances, children of the serve spans.
	insts, err := newEngines(shape, wallClock)
	if err != nil {
		return rc, err
	}
	engineSpan := make([]int32, len(batches))
	a0 = ac.read()
	for i, b := range batches {
		engineSpan[i] = tr.begin("engine.report_many", int64(i), serveSpan[i], batchSize)
		res := insts[b.Tenant].ReportMany(b.Nodes)
		tr.end(engineSpan[i])
		if res.Accepted != batchSize {
			closeAll(insts)
			return rc, fmt.Errorf("engine replay: batch %d accepted %d", i, res.Accepted)
		}
	}
	rc.EngineAllocs = ac.read() - a0
	closeAll(insts)

	// aggregator: Deliver per shard, children of the engine spans; the
	// kernel advances by the batch gap, and each window close is a span.
	kernel := sim.New()
	gap := float64(batches[1].At-batches[0].At) / float64(serve.DefaultUnit)
	aggs := make([][]*aggregator.Binary, len(shape.Tenants))
	for ti, t := range shape.Tenants {
		for _, part := range engine.ShardMembers(t.memberIDs(), t.Shards) {
			scheme, err := decision.New(t.Scheme, trustParams(t))
			if err != nil {
				return rc, err
			}
			b, err := aggregator.NewBinary(aggregator.BinaryConfig{Tout: sim.Duration(t.Tout), Members: part},
				scheme, kernel, nil, nil, nil)
			if err != nil {
				return rc, err
			}
			aggs[ti] = append(aggs[ti], b)
		}
	}
	windows := func() int {
		n := 0
		for _, row := range aggs {
			for _, b := range row {
				n += b.Windows()
			}
		}
		return n
	}
	for i, b := range batches {
		row := aggs[b.Tenant]
		a := ac.read()
		id := tr.begin("aggregator.deliver", int64(i), engineSpan[i], batchSize)
		for _, n := range b.Nodes {
			row[n%len(row)].Deliver(n)
		}
		tr.end(id)
		rc.DeliverAllocs += ac.read() - a
		w0 := windows()
		cid := tr.begin("aggregator.window_close_8", int64(i), -1, 0)
		kernel.Run(kernel.Now() + sim.Time(gap))
		tr.end(cid)
		tr.setItems(cid, windows()-w0)
	}
	rc.Reports = len(batches) * batchSize
	return rc, nil
}

// replayMixed replays the first mixedReplay of the serve-mixed stream:
// the JSON bursts through the handler, the same bursts into tibfit
// aggregators of 256 members on a sim kernel that follows the stream's
// schedule (so windows close as they would live), and each closed
// window's two sides through both schemes' Arbitrate.
func replayMixed(tr *tracer, seed uint64) (jsonAllocs uint64, reports int, err error) {
	shape := mixedShape()
	plan := genMixed(seed, mixedReplay)
	ac := newAllocCounter()
	srv, h, err := newInProcessServer(shape)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	w := &discardWriter{h: http.Header{}}
	a0 := ac.read()
	for i, o := range plan.Ops {
		if o.Kind != opEvent && o.Kind != opPhantom {
			continue
		}
		r, _ := http.NewRequest(http.MethodPost, "/v1/tenants/"+shape.Tenants[o.Tenant].Name+"/reports",
			bytes.NewReader(o.Body))
		w.reset()
		id := tr.begin("serve.json", int64(i), -1, len(o.Nodes))
		h.ServeHTTP(w, r)
		tr.end(id)
		if w.code != http.StatusOK {
			return 0, 0, fmt.Errorf("replayed burst %d: status %d %s", i, w.code, w.body)
		}
		reports += len(o.Nodes)
	}
	jsonAllocs = ac.read() - a0

	// Window close over 256 members, and the schemes' Arbitrate on the
	// sides each window closed with.
	kernel := sim.New()
	spec := shape.Tenants[0]
	parts := engine.ShardMembers(spec.memberIDs(), spec.Shards)
	schemes := map[string]decision.Scheme{}
	for _, name := range []string{decision.SchemeTIBFIT, decision.SchemeDynamicTrust} {
		s, err := decision.New(name, trustParams(spec))
		if err != nil {
			return 0, 0, err
		}
		schemes[name] = s
	}
	var sides [][2][]int
	var aggs []*aggregator.Binary
	for _, part := range parts {
		s, err := decision.New(spec.Scheme, trustParams(spec))
		if err != nil {
			return 0, 0, err
		}
		b, err := aggregator.NewBinary(aggregator.BinaryConfig{Tout: sim.Duration(spec.Tout), Members: part}, s, kernel,
			func(o aggregator.BinaryOutcome) {
				sides = append(sides, [2][]int{o.Decision.Reporters, o.Decision.Silent})
			}, nil, nil)
		if err != nil {
			return 0, 0, err
		}
		aggs = append(aggs, b)
	}
	unit := float64(serve.DefaultUnit)
	for i, o := range plan.Ops {
		if o.Tenant != 0 || (o.Kind != opEvent && o.Kind != opPhantom) {
			continue
		}
		w0 := len(sides)
		id := tr.begin("aggregator.window_close_256", int64(i), -1, 0)
		kernel.Run(sim.Time(float64(o.At) / unit))
		tr.end(id)
		tr.setItems(id, len(sides)-w0)
		for _, n := range o.Nodes {
			aggs[o.Shard].Deliver(n)
		}
	}
	for i, sd := range sides {
		for _, name := range []string{decision.SchemeTIBFIT, decision.SchemeDynamicTrust} {
			s := schemes[name]
			id := tr.begin("decision."+name+".arbitrate_256", int64(i), -1, 1)
			dec := s.Arbitrate(sd[0], sd[1])
			tr.end(id)
			members := append(append([]int(nil), sd[0]...), sd[1]...)
			id = tr.begin("decision."+name+".weight", int64(i), -1, len(members))
			for _, n := range members {
				_ = s.Weight(n)
			}
			tr.end(id)
			id = tr.begin("decision."+name+".judge", int64(i), -1, len(members))
			for _, n := range sd[0] {
				s.Judge(n, dec.Occurred)
			}
			for _, n := range sd[1] {
				s.Judge(n, !dec.Occurred)
			}
			tr.end(id)
		}
	}
	return jsonAllocs, reports, nil
}

// readPaths times the serve-mixed read endpoints handler-direct and the
// engine calls behind them, on state built by replaying the stream's
// bursts into sim-kernel engines and the in-process server.
func readPaths(tr *tracer, seed uint64) error {
	shape := mixedShape()
	plan := genMixed(seed, mixedReplay)
	kernel := sim.New()
	insts, err := newEngines(shape, func() engine.Clock { return kernel })
	if err != nil {
		return err
	}
	defer closeAll(insts)
	srv, h, err := newInProcessServer(shape)
	if err != nil {
		return err
	}
	defer srv.Close()
	w := &discardWriter{h: http.Header{}}
	for _, o := range plan.Ops {
		if o.Kind != opEvent && o.Kind != opPhantom {
			continue
		}
		kernel.Run(sim.Time(float64(o.At) / float64(serve.DefaultUnit)))
		insts[o.Tenant].ReportMany(o.Nodes)
		srvInst, _ := srv.Tenant(shape.Tenants[o.Tenant].Name)
		srvInst.ReportMany(o.Nodes)
	}
	kernel.RunAll()
	time.Sleep(settle) // the in-process server's wall-clock windows close
	in := insts[0]
	page := uint64(mixedPoll / mixedPeriod * 4) // decisions one 100 ms poll returns per tenant
	for i := range readRepeats {
		since := in.DecisionCount() - min(in.DecisionCount(), page)
		id := tr.begin("engine.decisions_since", int64(i), -1, 1)
		_ = in.DecisionsSince(since)
		tr.end(id)
		id = tr.begin("engine.trust_table", int64(i), -1, 1)
		_ = in.TrustTable()
		tr.end(id)
	}
	var blobs [][]byte
	for i := range snapshotRepeats {
		id := tr.begin("engine.sealed_snapshot", int64(i), -1, 1)
		blob, err := in.SealedSnapshot()
		tr.end(id)
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
	}
	fresh, err := newEngines(mixedShape(), func() engine.Clock { return sim.New() })
	if err != nil {
		return err
	}
	defer closeAll(fresh)
	for i, blob := range blobs {
		id := tr.begin("engine.restore_sealed", int64(i), -1, 1)
		err := fresh[0].RestoreSealed(blob)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	name := shape.Tenants[0].Name
	srvInst, _ := srv.Tenant(name)
	get := func(span, path string, n int) error {
		r, _ := http.NewRequest(http.MethodGet, path, nil)
		for i := range n {
			w.reset()
			id := tr.begin(span, int64(i), -1, 1)
			h.ServeHTTP(w, r)
			tr.end(id)
			if w.code != http.StatusOK {
				return fmt.Errorf("GET %s: %d", path, w.code)
			}
		}
		return nil
	}
	since := srvInst.DecisionCount() - min(srvInst.DecisionCount(), page)
	if err := get("serve.decisions", "/v1/tenants/"+name+"/decisions?since="+strconv.FormatUint(since, 10), readRepeats); err != nil {
		return err
	}
	if err := get("serve.trust", "/v1/tenants/"+name+"/trust", readRepeats); err != nil {
		return err
	}
	return get("serve.snapshot", "/v1/tenants/"+name+"/snapshot", snapshotRepeats)
}

// lockWait is ReportMany's ns/report with two goroutines on one shard
// minus with the two on different shards.
func lockWait(seed uint64) (float64, error) {
	r := rngFor(seed, wServeIngest, "lockwait")
	shape := serveShape{Tenants: ingestShape().Tenants[:1]}
	spec := shape.Tenants[0]
	batchFor := func(shard int) [][]int {
		out := make([][]int, 400)
		for i := range out {
			out[i] = make([]int, batchSize)
			for j := range out[i] {
				out[i][j] = shard + spec.Shards*r.IntN(spec.Nodes/spec.Shards)
			}
		}
		return out
	}
	run := func(shardA, shardB int) (float64, error) {
		insts, err := newEngines(shape, wallClock)
		if err != nil {
			return 0, err
		}
		defer closeAll(insts)
		work := [2][][]int{batchFor(shardA), batchFor(shardB)}
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, b := range work[g] {
					insts[0].ReportMany(b)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(t0)) / float64(2*400*batchSize), nil
	}
	same, err := run(0, 0)
	if err != nil {
		return 0, err
	}
	apart, err := run(0, 1)
	return same - apart, err
}

// fireLateness replays ingest batches at the reference rate into a bare
// WallClock engine and returns each decision's lateness past T_out, µs.
func fireLateness(seed uint64) ([]float64, error) {
	shape := ingestShape()
	insts, err := newEngines(shape, wallClock)
	if err != nil {
		return nil, err
	}
	defer closeAll(insts)
	ref := ingestLadder(10)[1]
	ops := ingestOps(genIngestPool(seed), 0, rung{Rate: ref.Rate, Length: 500 * time.Millisecond})
	start := time.Now()
	for _, o := range ops {
		sleepUntil(start.Add(o.At))
		insts[o.Tenant].ReportMany(o.Nodes)
	}
	time.Sleep(settle)
	var out []float64
	for t, in := range insts {
		for _, d := range in.DecisionsSince(0) {
			out = append(out, (d.Decided-d.Trigger-shape.Tenants[t].Tout)*1000)
		}
	}
	return out, nil
}

// spinCeiling is the host's parallel ceiling: spin-loop throughput at
// nproc goroutines over one.
func spinCeiling() float64 {
	spin := func(g int) float64 {
		var total atomic.Int64
		var wg sync.WaitGroup
		stop := time.Now().Add(150 * time.Millisecond)
		for range g {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := int64(0)
				x := uint64(1)
				for time.Now().Before(stop) {
					for range 1000 {
						x = x*6364136223846793005 + 1442695040888963407
					}
					n++
				}
				total.Add(n + int64(x&0))
			}()
		}
		wg.Wait()
		return float64(total.Load())
	}
	one := spin(1)
	return spin(runtime.NumCPU()) / one
}

// cpuShares groups a CPU profile's flat samples by package with the
// toolchain's `go tool pprof -top`.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		total += d.Seconds()
		shares[packageOf(strings.Join(f[5:], " "))] += d.Seconds()
	}
	for k := range shares {
		shares[k] /= max(total, 1e-9)
	}
	return shares, nil
}

// cpuPackages are the packages cpu_share.* reports.
var cpuPackages = []string{"sim", "radio", "network", "node", "aggregator", "cluster", "core", "decision",
	"geo", "leach", "sparse", "serve", "engine", "net-http", "runtime-gc"}

// packageOf maps a pprof function name to its cpu_share group.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		l := strings.ToLower(rest)
		for _, k := range []string{"gc", "mark", "scan", "sweep", "greyobject", "findobject", "wbbuf", "heapbits"} {
			if strings.Contains(l, k) {
				return "runtime-gc"
			}
		}
		return "runtime"
	}
	if strings.HasPrefix(fn, "net/http.") {
		return "net-http"
	}
	if rest, ok := strings.CutPrefix(fn, "github.com/tibfit/tibfit/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
	}
	return "other"
}

// workloadPass is the traced run's profiled pass: the workload's own
// stream replayed layer by layer (serve workloads) or its entry point
// called once (batch workloads).
func workloadPass(o options) (func(tr *tracer) error, error) {
	switch o.workload {
	case wServeIngest:
		return func(tr *tracer) error { _, err := replayIngest(tr, o.seed); return err }, nil
	case wServeMixed:
		return func(tr *tracer) error { _, _, err := replayMixed(tr, o.seed); return err }, nil
	case wCampaign:
		golden, err := loadGoldens(o.root)
		if err != nil {
			return nil, err
		}
		return func(tr *tracer) error {
			rep := newReport()
			_, err := runCampaignPass(rep, figureOrder(o.seed), golden, 2, func(id string, d time.Duration) {
				tr.record("experiment."+id, d)
			})
			return firstProblem(rep, err)
		}, nil
	default:
		return func(tr *tracer) error {
			rep := newReport()
			id := tr.begin("experiment.run_field", 0, -1, 1)
			_, err := runFieldPass(rep, o.seed)
			tr.end(id)
			return firstProblem(rep, err)
		}, nil
	}
}

func firstProblem(rep *report, err error) error {
	if err == nil && len(rep.problems) > 0 {
		return fmt.Errorf("%s", rep.problems[0])
	}
	return err
}

// runTraced is --trace 1: the workload's profiled pass
// (untraced, then traced: the difference is the tracing overhead), then
// the layer ledger every traced run measures, then the spans to disk.
func runTraced(ctx context.Context, o options, rep *report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	pass, err := workloadPass(o)
	if err != nil {
		return err
	}
	// Short passes repeat until the untraced side has run profileSpan,
	// so the profile holds enough samples; the traced side repeats as
	// often.
	reps := 0
	t0 := time.Now()
	for reps == 0 || time.Since(t0) < profileSpan {
		if err := pass(nil); err != nil {
			return err
		}
		reps++
	}
	untraced := time.Since(t0)
	tr := newTracer()
	profPath := filepath.Join(o.out, "cpu-"+o.workload+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	rtm := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(rtm)
	before := []float64{float64(rtm[0].Value.Uint64()), rtm[1].Value.Float64(), rtm[2].Value.Float64()}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	t0 = time.Now()
	var perr error
	for range reps {
		if perr = pass(tr); perr != nil {
			break
		}
	}
	traced := time.Since(t0)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	rtmetrics.Read(rtm)
	rep.add("runtime.alloc_mb", "MB", sample{(float64(rtm[0].Value.Uint64()) - before[0]) / (1 << 20) / float64(reps), reps})
	rep.add("runtime.gc_cpu_share", "share", sample{(rtm[1].Value.Float64() - before[1]) /
		max(rtm[2].Value.Float64()-before[2], 1e-9), 1})
	rep.add("trace.overhead_share", "share", sample{(traced.Seconds() - untraced.Seconds()) / untraced.Seconds(), 2})
	shares, err := cpuShares(profPath)
	if err != nil {
		return err
	}
	for _, p := range cpuPackages {
		rep.add("cpu_share."+p, "share", sample{shares[p], 1})
	}

	// The layer ledger, on a fresh tracer so the workload pass's spans
	// do not count twice.
	led := newTracer()
	if err := ledger(ctx, o, led, rep); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d", o.workload, o.seed))
	if err := tr.write(base + "-pass.jsonl"); err != nil {
		return err
	}
	return led.write(base + "-ledger.jsonl")
}

// ledger measures every per-layer metric on the workload seed's streams.
func ledger(ctx context.Context, o options, tr *tracer, rep *report) error {
	rc, err := replayIngest(tr, o.seed)
	if err != nil {
		return err
	}
	reports := float64(rc.Reports)
	enc := tr.stats("loadgen.encode")
	sv := tr.stats("serve.batch")
	en := tr.stats("engine.report_many")
	dl := tr.stats("aggregator.deliver")
	wc8 := tr.stats("aggregator.window_close_8")
	rep.add("loadgen.encode_ns_per_report", "ns", sample{enc.nsPerItem(), enc.Items})
	rep.add("serve.batch_ns_per_report", "ns", sample{sv.nsPerItem(), sv.Items})
	rep.add("serve.batch_allocs_per_report", "allocs", sample{float64(rc.ServeAllocs) / reports, rc.Reports})
	rep.add("serve.self_ns_per_report", "ns", sample{float64(sv.Self) / reports, rc.Reports})
	rep.add("engine.report_many_ns_per_report", "ns", sample{en.nsPerItem(), en.Items})
	rep.add("engine.report_many_allocs_per_report", "allocs", sample{float64(rc.EngineAllocs) / reports, rc.Reports})
	rep.add("engine.self_ns_per_report", "ns", sample{float64(en.Self) / reports, rc.Reports})
	rep.add("aggregator.deliver_ns", "ns", sample{dl.nsPerItem(), dl.Items})
	rep.add("aggregator.deliver_allocs", "allocs", sample{float64(rc.DeliverAllocs) / reports, rc.Reports})
	rep.add("aggregator.window_close_us_8", "us", sample{float64(wc8.Total) / 1e3 / float64(max(wc8.Items, 1)), wc8.Items})

	jsonAllocs, jsonReports, err := replayMixed(tr, o.seed)
	if err != nil {
		return err
	}
	js := tr.stats("serve.json")
	rep.add("serve.json_ns_per_report", "ns", sample{js.nsPerItem(), js.Items})
	rep.add("serve.json_allocs_per_report", "allocs", sample{float64(jsonAllocs) / float64(jsonReports), jsonReports})
	wc256 := tr.stats("aggregator.window_close_256")
	rep.add("aggregator.window_close_us_256", "us", sample{float64(wc256.Total) / 1e3 / float64(max(wc256.Items, 1)), wc256.Items})
	for _, name := range []string{decision.SchemeTIBFIT, decision.SchemeDynamicTrust} {
		a := tr.stats("decision." + name + ".arbitrate_256")
		rep.add("decision."+name+".arbitrate_us_256", "us", sample{median(a.Durs) / 1e3, len(a.Durs)})
	}
	wt, jd := tr.stats("decision.tibfit.weight"), tr.stats("decision.tibfit.judge")
	rep.add("decision.tibfit.weight_ns", "ns", sample{wt.nsPerItem(), wt.Items})
	rep.add("decision.tibfit.judge_ns", "ns", sample{jd.nsPerItem(), jd.Items})

	var hist metrics.Histogram
	id := tr.begin("metrics.histogram_record", 0, -1, 100_000)
	for i := range 100_000 {
		hist.Record(float64(i%4096) * 37)
	}
	tr.end(id)
	hr := tr.stats("metrics.histogram_record")
	rep.add("metrics.histogram_record_ns", "ns", sample{hr.nsPerItem(), hr.Items})

	if err := readPaths(tr, o.seed); err != nil {
		return err
	}
	for _, r := range []struct{ span, metric string }{
		{"engine.decisions_since", "engine.decisions_since_us"}, {"engine.trust_table", "engine.trust_table_us"},
		{"engine.sealed_snapshot", "engine.sealed_snapshot_us"}, {"engine.restore_sealed", "engine.restore_sealed_us"},
		{"serve.decisions", "serve.decisions_us"}, {"serve.trust", "serve.trust_us"}, {"serve.snapshot", "serve.snapshot_us"},
	} {
		st := tr.stats(r.span)
		rep.add(r.metric, "us", sample{median(st.Durs) / 1e3, len(st.Durs)})
	}
	lw, err := lockWait(o.seed)
	if err != nil {
		return err
	}
	rep.add("engine.lock_wait_ns_per_report", "ns", sample{lw, 2 * 400 * batchSize})
	late, err := fireLateness(o.seed)
	if err != nil {
		return err
	}
	rep.add("engine.fire_late_p50_us", "us", sample{quantile(late, 0.5), len(late)})
	rep.add("engine.fire_late_p99_us", "us", sample{quantile(late, 0.99), len(late)})

	if err := serveReference(ctx, o, rep, sv, wc8, rc); err != nil {
		return err
	}
	return campaignLedger(o, tr, rep)
}

// serveReference runs a short out-of-process serve-ingest reference
// pass and reconciles the server's CPU per report with the replayed
// layers' self times.
func serveReference(ctx context.Context, o options, rep *report, sv, wc8 layerStats, rc replayCounts) error {
	client := newClient()
	defer client.CloseIdleConnections()
	shape := ingestShape()
	srv, err := startServer(o.serveBin, client)
	if err != nil {
		return err
	}
	defer srv.stop()
	if err := srv.createTenants(ctx, shape); err != nil {
		return err
	}
	defer pinGenerator()()
	sr := newServeRun(srv, shape)
	ref := ingestLadder(10)[1]
	ref.Length = time.Duration(refPassSeconds * float64(time.Second))
	passes, err := runIngestLadder(ctx, sr, o.seed, []rung{ref})
	if err != nil {
		return err
	}
	p := passes[0]
	if p.Stats.Failed > 0 || p.Stats.Started < p.Stats.Scheduled {
		return fmt.Errorf("traced reference pass: %d of %d batches failed or unsent", p.Stats.Failed+p.Stats.Scheduled-p.Stats.Started, p.Stats.Scheduled)
	}
	rep.add("loadgen.late_p99_ms", "ms", sample{quantile(p.Stats.Late, 0.99), len(p.Stats.Late)})
	rep.add("transport.overhead_us_p50", "us", sample{quantile(p.Stats.RTT, 0.5)*1e3 - median(sv.Durs)/1e3, len(p.Stats.RTT)})
	rep.add("server.gc_count", "count", sample{float64(p.GC.Count), p.GC.Count})
	rep.add("server.gc_pause_ms", "ms", sample{p.GC.PauseMS, p.GC.Count})
	serverNS := float64(p.CPU) / float64(p.Reports)
	rep.add("server_cpu_ns_per_report", "ns", sample{serverNS, int(p.Reports)})
	gcNS := p.GC.CPUMS * 1e6 / float64(p.Reports)
	rep.add("server.gc_cpu_ns_per_report", "ns", sample{gcNS, p.GC.Count})
	// Window closes per report as the live server made them, priced at
	// the replayed close cost.
	closeNS := float64(wc8.Total) / float64(max(wc8.Items, 1)) * float64(len(p.Late)) / float64(p.Reports)
	rep.add("aggregator.window_close_ns_per_report", "ns", sample{closeNS, len(p.Late)})
	transportNS, err := healthzCost(ctx, sr, len(p.Stats.Latency), ref.Length)
	if err != nil {
		return err
	}
	rep.add("transport.server_ns_per_report", "ns", sample{transportNS, len(p.Stats.Latency)})
	explained := float64(sv.Total)/float64(rc.Reports) + closeNS + gcNS + transportNS
	unexplained := (serverNS - explained) / serverNS
	rep.add("ledger.explained_ns_per_report", "ns", sample{explained, rc.Reports})
	rep.add("ledger.unexplained_share", "share", sample{unexplained, int(p.Reports)})
	rep.check(math.Abs(unexplained) <= ledgerTolerance, "ledger.unexplained_share %.3f is outside ±%.2f", unexplained, ledgerTolerance)
	return nil
}

// healthzCost prices the server side of the transport: n GET /healthz
// requests at the reference pass's request rate, so net/http framing,
// the socket syscalls and scheduling run with no ingest behind them. It
// returns the server CPU per request, spread over a batch's reports.
func healthzCost(ctx context.Context, sr *serveRun, n int, length time.Duration) (float64, error) {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{At: length * time.Duration(i) / time.Duration(n), Kind: opHealth}
	}
	cpu0, err := sr.srv.cpuTime()
	if err != nil {
		return 0, err
	}
	res := runOpenLoop(ctx, ops, generatorWorkers, time.Now().Add(time.Millisecond), length+cutoffSlack, sr.exec)
	cpu1, err := sr.srv.cpuTime()
	if err != nil {
		return 0, err
	}
	st := summarize(ops, res, isKind(opHealth))
	if st.Failed > 0 || st.Started < st.Scheduled {
		return 0, fmt.Errorf("healthz pass: %d of %d requests failed or unsent", st.Failed+st.Scheduled-st.Started, st.Scheduled)
	}
	return float64(cpu1-cpu0) / float64(st.Started) / batchSize, nil
}

// campaignLedger times each figure sequentially (Parallel 1) and the
// whole campaign at Parallel 2, checking every CSV.
func campaignLedger(o options, tr *tracer, rep *report) error {
	golden, err := loadGoldens(o.root)
	if err != nil {
		return err
	}
	seq, err := runCampaignPass(rep, figureIDs, golden, 1, func(id string, d time.Duration) {
		rep.add("experiment."+id+"_s", "s", sample{d.Seconds(), 1})
		tr.record("experiment."+id, d)
	})
	if err != nil {
		return err
	}
	par, err := runCampaignPass(rep, figureIDs, golden, 2, nil)
	if err != nil {
		return err
	}
	speedup := seq.Wall.Seconds() / par.Wall.Seconds()
	rep.add("parallel.speedup", "x", sample{speedup, 2})
	ceiling := rep.rows["host.spin_ceiling"].V
	rep.add("parallel.efficiency", "share", sample{speedup / ceiling, 2})
	return nil
}
