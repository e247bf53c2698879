package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tibfit/tibfit/internal/engine"
)

const (
	// setupRepeats is how many times a run sets the server up; setup_s
	// is the median.
	setupRepeats = 9
	// latencyLimitMS is the ingest_p99_ms limit a ladder rung must meet
	// to count as sustained.
	latencyLimitMS = 20.0
	// settle is how long a pass waits after its last request before the
	// closing poll: several T_out, so every window it opened has closed.
	settle = 40 * time.Millisecond
	// cutoffSlack is how long past its scheduled end a pass may keep
	// starting requests; what is still unsent then is backlog.
	cutoffSlack = 250 * time.Millisecond
	// generatorWorkers is the open-loop client's connection and thread
	// count: nproc on the 2-vCPU host the workloads were sized on.
	generatorWorkers = 2
)

// decisionLog follows one tenant's decision stream with ?since=.
type decisionLog struct {
	mu    sync.Mutex
	since uint64
	got   []engine.Decision
	gaps  int
}

// serveRun is the client side of one serve workload.
type serveRun struct {
	srv      *server
	shape    serveShape
	logs     []*decisionLog
	accepted []atomic.Int64 // reports the server acknowledged, per tenant
	rejected atomic.Int64
}

func newServeRun(srv *server, shape serveShape) *serveRun {
	sr := &serveRun{srv: srv, shape: shape, accepted: make([]atomic.Int64, len(shape.Tenants))}
	for range shape.Tenants {
		sr.logs = append(sr.logs, &decisionLog{})
	}
	return sr
}

// exec sends one op; it is the open loop's request function.
func (sr *serveRun) exec(ctx context.Context, o *op) bool {
	name := sr.shape.Tenants[o.Tenant].Name
	switch o.Kind {
	case opIngestBatch, opEvent, opPhantom:
		path := "/v1/tenants/" + name + "/reports"
		if o.Kind == opIngestBatch {
			path += "/batch"
		}
		code, body, err := sr.srv.do(ctx, http.MethodPost, path, o.Body)
		if err != nil || code != http.StatusOK {
			return false
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if json.Unmarshal(body, &ack) != nil {
			return false
		}
		sr.accepted[o.Tenant].Add(int64(ack.Accepted))
		if ack.Accepted != len(o.Nodes) {
			sr.rejected.Add(int64(len(o.Nodes) - ack.Accepted))
			return false
		}
		return true
	case opPoll:
		return sr.poll(ctx, o.Tenant) == nil
	case opTrust:
		code, _, err := sr.srv.do(ctx, http.MethodGet, "/v1/tenants/"+name+"/trust", nil)
		return err == nil && code == http.StatusOK
	case opHealth:
		code, _, err := sr.srv.do(ctx, http.MethodGet, "/healthz", nil)
		return err == nil && code == http.StatusOK
	case opSnapshot:
		code, body, err := sr.srv.do(ctx, http.MethodGet, "/v1/tenants/"+name+"/snapshot", nil)
		return err == nil && code == http.StatusOK && len(body) > 0
	}
	return false
}

// poll reads a tenant's decisions after the last seq seen, counting
// every seq the stream skipped.
func (sr *serveRun) poll(ctx context.Context, t int) error {
	l := sr.logs[t]
	l.mu.Lock()
	defer l.mu.Unlock()
	var page struct {
		Decisions []engine.Decision `json:"decisions"`
	}
	path := "/v1/tenants/" + sr.shape.Tenants[t].Name + "/decisions?since=" + strconv.FormatUint(l.since, 10)
	if err := sr.srv.getJSON(ctx, path, &page); err != nil {
		return err
	}
	for _, d := range page.Decisions {
		if d.Seq != l.since+1 {
			l.gaps++
		}
		l.since = d.Seq
		l.got = append(l.got, d)
	}
	return nil
}

func (sr *serveRun) pollAll(ctx context.Context) error {
	time.Sleep(settle)
	for t := range sr.shape.Tenants {
		if err := sr.poll(ctx, t); err != nil {
			return err
		}
	}
	return nil
}

// decisionCounts is how many decisions each tenant's log holds.
func (sr *serveRun) decisionCounts() []int {
	out := make([]int, len(sr.logs))
	for i, l := range sr.logs {
		l.mu.Lock()
		out[i] = len(l.got)
		l.mu.Unlock()
	}
	return out
}

// lateness returns (decided − trigger − T_out) in ms for the decisions
// each tenant logged at positions [from[t], to[t]).
func (sr *serveRun) lateness(from, to []int) []float64 {
	unitMS := 1.0 // tibfit-serve's default unit is one millisecond
	var out []float64
	for t, l := range sr.logs {
		tout := sr.shape.Tenants[t].Tout
		for _, d := range l.got[from[t]:to[t]] {
			out = append(out, (d.Decided-d.Trigger-tout)*unitMS)
		}
	}
	return out
}

type trustRow struct {
	Node     int     `json:"node"`
	TI       float64 `json:"ti"`
	Isolated bool    `json:"isolated"`
}

func (sr *serveRun) trust(ctx context.Context, name string) ([]trustRow, error) {
	var reply struct {
		Trust []trustRow `json:"trust"`
	}
	err := sr.srv.getJSON(ctx, "/v1/tenants/"+name+"/trust", &reply)
	return reply.Trust, err
}

// finalChecks runs the checks every serve workload shares, after the
// closing poll: the server's per-tenant report and decision counts match
// what the client saw, the decision stream has no gaps, every decision
// partitions its shard (isolated nodes excepted), and a sealed snapshot
// restored into a fresh tenant reproduces the trust table. It returns
// each tenant's final trust table.
func (sr *serveRun) finalChecks(ctx context.Context, rep *report) ([][]trustRow, error) {
	var m struct {
		PerTenant map[string]struct {
			Reports   uint64 `json:"reports"`
			Decisions uint64 `json:"decisions"`
		} `json:"per_tenant"`
	}
	if err := sr.srv.getJSON(ctx, "/v1/metrics", &m); err != nil {
		return nil, err
	}
	tables := make([][]trustRow, len(sr.shape.Tenants))
	for t, spec := range sr.shape.Tenants {
		got := m.PerTenant[spec.Name]
		l := sr.logs[t]
		rep.check(got.Reports == uint64(sr.accepted[t].Load()),
			"%s: server counted %d reports, client sent %d accepted", spec.Name, got.Reports, sr.accepted[t].Load())
		rep.check(got.Decisions == l.since && uint64(len(l.got)) == l.since,
			"%s: server made %d decisions, poller read %d up to seq %d", spec.Name, got.Decisions, len(l.got), l.since)
		rep.check(l.gaps == 0, "%s: %d gaps in the decision seqs", spec.Name, l.gaps)
		table, err := sr.trust(ctx, spec.Name)
		if err != nil {
			return nil, err
		}
		tables[t] = table
		isolated := map[int]bool{}
		for _, r := range table {
			if r.Isolated {
				isolated[r.Node] = true
			}
		}
		bad := 0
		for _, d := range l.got {
			if !partitionsShard(d, spec, isolated) {
				bad++
			}
		}
		rep.check(bad == 0, "%s: %d decisions whose reporters and silent sides do not partition their shard", spec.Name, bad)
	}
	rep.check(sr.rejected.Load() == 0, "%d reports rejected", sr.rejected.Load())
	return tables, sr.checkSnapshot(ctx, rep, tables[0])
}

// partitionsShard checks that a decision's two sides are sorted,
// disjoint and drawn from one shard's members, and that every member
// missing from both is isolated (isolated nodes are left out of votes).
func partitionsShard(d engine.Decision, spec tenantSpec, isolated map[int]bool) bool {
	all := append(append([]int(nil), d.Reporters...), d.Silent...)
	if len(all) == 0 || !sort.IntsAreSorted(d.Reporters) || !sort.IntsAreSorted(d.Silent) {
		return false
	}
	shard := all[0] % spec.Shards // ShardMembers deals IDs 0..n-1 round-robin
	seen := map[int]bool{}
	for _, id := range all {
		if id < 0 || id >= spec.Nodes || id%spec.Shards != shard || seen[id] {
			return false
		}
		seen[id] = true
	}
	for id := shard; id < spec.Nodes; id += spec.Shards {
		if !seen[id] && !isolated[id] {
			return false
		}
	}
	return true
}

// checkSnapshot seals the first tenant's state, restores it into a fresh
// tenant of the same shape and compares the two trust tables.
func (sr *serveRun) checkSnapshot(ctx context.Context, rep *report, want []trustRow) error {
	spec := sr.shape.Tenants[0]
	code, blob, err := sr.srv.do(ctx, http.MethodGet, "/v1/tenants/"+spec.Name+"/snapshot", nil)
	if err != nil {
		return err
	}
	rep.check(code == http.StatusOK, "snapshot of %s: status %d", spec.Name, code)
	restored := spec
	restored.Name = spec.Name + "-restored"
	if err := sr.srv.createTenants(ctx, serveShape{Tenants: []tenantSpec{restored}}); err != nil {
		return err
	}
	code, body, err := sr.srv.do(ctx, http.MethodPut, "/v1/tenants/"+restored.Name+"/snapshot", blob)
	if err != nil {
		return err
	}
	rep.check(code == http.StatusOK, "restoring snapshot: %d %s", code, body)
	got, err := sr.trust(ctx, restored.Name)
	if err != nil {
		return err
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == want[i]
	}
	rep.check(same, "restored trust table of %s differs from the original", spec.Name)
	return nil
}

// withPolls merges a once-per-second decision poll of every tenant into
// a pass's schedule, staggered so tenants are not polled together.
func withPolls(ops []op, tenants int, length time.Duration) []op {
	for t := range tenants {
		for at := time.Duration(t+1) * time.Second / time.Duration(tenants+1); at < length; at += time.Second {
			ops = append(ops, op{At: at, Kind: opPoll, Tenant: t})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

func isKind(kinds ...opKind) func(opKind) bool {
	return func(k opKind) bool {
		for _, x := range kinds {
			if k == x {
				return true
			}
		}
		return false
	}
}

// ingestPass is one serve-ingest rung's measurements.
type ingestPass struct {
	Rung      rung
	Stats     passStats // ingest batches
	All       passStats // batches and polls
	Reports   int64
	CPU       time.Duration
	GC        gcStats
	Late      []float64 // decision lateness, ms
	Sustained bool
}

// runIngestLadder drives the rungs in order against a running server and
// returns one pass per rung.
func runIngestLadder(ctx context.Context, sr *serveRun, seed uint64, ladder []rung) ([]ingestPass, error) {
	pool := genIngestPool(seed)
	offset := 0
	var passes []ingestPass
	for _, g := range ladder {
		ops := ingestOps(pool, offset, g)
		offset += len(ops)
		ops = withPolls(ops, len(sr.shape.Tenants), g.Length)
		before := sr.decisionCounts()
		var accBefore int64
		for t := range sr.accepted {
			accBefore += sr.accepted[t].Load()
		}
		cpu0, err := sr.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		gc0 := sr.srv.gcSnapshot()
		res := runOpenLoop(ctx, ops, generatorWorkers, time.Now().Add(time.Millisecond), g.Length+cutoffSlack, sr.exec)
		if err := sr.pollAll(ctx); err != nil {
			return nil, err
		}
		cpu1, err := sr.srv.cpuTime()
		if err != nil {
			return nil, err
		}
		gc1 := sr.srv.gcSnapshot()
		var acc int64
		for t := range sr.accepted {
			acc += sr.accepted[t].Load()
		}
		p := ingestPass{
			Rung:    g,
			Stats:   summarize(ops, res, isKind(opIngestBatch)),
			Reports: acc - accBefore,
			CPU:     cpu1 - cpu0,
			GC:      gcStats{Count: gc1.Count - gc0.Count, PauseMS: gc1.PauseMS - gc0.PauseMS, CPUMS: gc1.CPUMS - gc0.CPUMS},
			Late:    sr.lateness(before, sr.decisionCounts()),
		}
		p.All = summarize(ops, res, func(opKind) bool { return true })
		p.Sustained = p.Stats.Started == p.Stats.Scheduled && p.Stats.Failed == 0 &&
			quantile(p.Stats.Latency, 0.99) <= latencyLimitMS
		passes = append(passes, p)
	}
	return passes, nil
}

// runServeIngest is the serve-ingest workload: the offered-rate ladder
// against one tibfit-serve process.
func runServeIngest(ctx context.Context, o options, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()
	shape := ingestShape()
	srv, setup, err := setupServer(ctx, o.serveBin, client, shape)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.add("setup_s", "s", setup)
	defer pinGenerator()()
	sr := newServeRun(srv, shape)
	passes, err := runIngestLadder(ctx, sr, o.seed, ingestLadder(o.seconds))
	if err != nil {
		return err
	}
	var sustained sample
	for _, p := range passes {
		// Requests a rung never started are backlog, judged by its
		// sustained test, not failures.
		rep.requests(p.All.Started, p.All.Failed)
		k := fmt.Sprintf("rung.%dk.", int(p.Rung.Rate/1000))
		rep.add(k+"ingest_p99_ms", "ms", sample{quantile(p.Stats.Latency, 0.99), len(p.Stats.Latency)})
		rep.add(k+"sent_share", "share", sample{float64(p.Stats.Started) / float64(p.Stats.Scheduled), p.Stats.Scheduled})
		if p.Sustained {
			sustained = sample{float64(p.Reports) / p.Stats.Last.Seconds(), p.Stats.Started}
		}
		if p.Rung.Reference {
			addServePass(rep, p.Stats, p.Reports, p.CPU, p.Late)
		}
	}
	rep.check(sustained.N > 0, "no ladder rung met the %v ms p99 limit", latencyLimitMS)
	rep.add("sustained_rps", "1/s", sustained)
	if _, err := sr.finalChecks(ctx, rep); err != nil {
		return err
	}
	return addServerTotals(rep, srv)
}

// addServePass records the end-to-end metrics of a serve workload's
// reference pass.
func addServePass(rep *report, st passStats, reports int64, cpu time.Duration, late []float64) {
	n := len(st.Latency)
	p50 := sample{quantile(st.Latency, 0.5), n}
	p90 := windowedQuantile(st, 0.9)
	rep.add("ingest_p50_ms", "ms", p50)
	rep.add("ingest_p90_ms", "ms", p90)
	rep.add("ingest_p99_ms", "ms", windowedQuantile(st, 0.99))
	rep.add("latency_p50_ms", "ms", p50)
	rep.add("latency_p90_ms", "ms", p90)
	rep.add("server_cpu_ns_per_report", "ns", sample{float64(cpu) / float64(reports), int(reports)})
	rep.add("cpu_s", "s", sample{cpu.Seconds(), 1})
	rep.add("wall_s", "s", sample{st.Last.Seconds(), 1})
	rep.add("decision_late_p50_ms", "ms", sample{quantile(late, 0.5), len(late)})
	rep.add("decision_late_p99_ms", "ms", sample{quantile(late, 0.99), len(late)})
	rep.add("loadgen.late_p99_ms", "ms", sample{quantile(st.Late, 0.99), n})
}

// windowedQuantile is the median of the q-quantile latencies of
// consecutive chunks of the pass (latencies are in schedule order), each
// chunk at least 1000 requests so even a p99 has ten samples beyond it:
// one host stall moves one chunk's tail, not the run's.
func windowedQuantile(st passStats, q float64) sample {
	n := len(st.Latency)
	chunks := max(n/1000, 1)
	var qs []float64
	for c := range chunks {
		qs = append(qs, quantile(st.Latency[c*n/chunks:(c+1)*n/chunks], q))
	}
	return sample{median(qs), n}
}

// addServerTotals records the server's peak RSS and the run's failed
// share, once every check has run.
func addServerTotals(rep *report, srv *server) error {
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", "MB", sample{rss, 1})
	rep.add("failed_share", "share", sample{float64(rep.failed) / float64(max(rep.attempted, 1)), int(rep.attempted)})
	return nil
}

// runServeMixed is the serve-mixed workload: the binary experiment's
// event and phantom bursts on the JSON wire with pollers, trust reads
// and snapshots beside them, one pass at the fixed offered load.
func runServeMixed(ctx context.Context, o options, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()
	shape := mixedShape()
	srv, setup, err := setupServer(ctx, o.serveBin, client, shape)
	if err != nil {
		return err
	}
	defer srv.stop()
	rep.add("setup_s", "s", setup)
	defer pinGenerator()()
	sr := newServeRun(srv, shape)
	length := time.Duration(o.seconds * float64(time.Second) * 0.9)
	plan := genMixed(o.seed, length)
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	res := runOpenLoop(ctx, plan.Ops, generatorWorkers, time.Now().Add(time.Millisecond), length+cutoffSlack, sr.exec)
	if err := sr.pollAll(ctx); err != nil {
		return err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	all := summarize(plan.Ops, res, func(opKind) bool { return true })
	rep.requests(all.Scheduled, all.Failed+all.Scheduled-all.Started)
	ingest := summarize(plan.Ops, res, isKind(opEvent, opPhantom))
	var reports int64
	for t := range sr.accepted {
		reports += sr.accepted[t].Load()
	}
	addServePass(rep, ingest, reports, cpu1-cpu0,
		sr.lateness(make([]int, len(shape.Tenants)), sr.decisionCounts()))
	polls := summarize(plan.Ops, res, isKind(opPoll))
	rep.add("poll_p50_ms", "ms", sample{quantile(polls.Latency, 0.5), len(polls.Latency)})
	rep.add("poll_p99_ms", "ms", sample{quantile(polls.Latency, 0.99), len(polls.Latency)})

	right, total := 0, 0
	for t, l := range sr.logs {
		for _, d := range l.got {
			truth := false // an event window has an honest reporter
			for _, id := range d.Reporters {
				truth = truth || !plan.Faulty[t][id]
			}
			total++
			if d.Occurred == truth {
				right++
			}
		}
	}
	rep.add("decision_accuracy", "share", sample{float64(right) / float64(max(total, 1)), total})
	tables, err := sr.finalChecks(ctx, rep)
	if err != nil {
		return err
	}
	for t, table := range tables {
		var missed, wronged []int
		for _, r := range table {
			switch {
			case plan.Faulty[t][r.Node] && !r.Isolated:
				missed = append(missed, r.Node)
			case !plan.Faulty[t][r.Node] && r.Isolated:
				wronged = append(wronged, r.Node)
			}
		}
		rep.check(len(missed) == 0, "%s: faulty nodes not isolated: %v", shape.Tenants[t].Name, missed)
		rep.check(len(wronged) == 0, "%s: honest nodes isolated: %v", shape.Tenants[t].Name, wronged)
	}
	return addServerTotals(rep, srv)
}
