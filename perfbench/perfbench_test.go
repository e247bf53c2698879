package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tibfit/tibfit/internal/engine"
)

// The generated inputs are a pure function of (seed, workload): the same
// seed replays byte for byte, another seed gives another stream.
func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	a, b, c := genIngestPool(7), genIngestPool(7), genIngestPool(8)
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Tenant != b[i].Tenant {
			t.Fatalf("ingest batch %d differs between two draws of seed 7", i)
		}
		if !bytes.Equal(a[i].Body, encodeLines(nil, a[i].Nodes)) {
			t.Fatalf("ingest batch %d body is not the line encoding of its nodes", i)
		}
	}
	if bytes.Equal(a[0].Body, c[0].Body) {
		t.Fatal("seeds 7 and 8 drew the same first batch")
	}
	m1, m2 := genMixed(7, 2*time.Second), genMixed(7, 2*time.Second)
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("serve-mixed stream differs between two draws of seed 7")
	}
	if reflect.DeepEqual(m1.Faulty, genMixed(8, 2*time.Second).Faulty) {
		t.Fatal("seeds 7 and 8 drew the same faulty sets")
	}
	if !reflect.DeepEqual(figureOrder(7), figureOrder(7)) {
		t.Fatal("campaign figure order differs between two draws of seed 7")
	}
}

// The ingest schedule offers exactly the rung's rate.
func TestIngestScheduleMatchesRate(t *testing.T) {
	g := rung{Rate: 512_000, Length: time.Second}
	ops := ingestOps(genIngestPool(1), 0, g)
	if len(ops) != 2000 {
		t.Fatalf("%d batches scheduled, want 2000", len(ops))
	}
	if gap := ops[1].At - ops[0].At; gap != 500*time.Microsecond {
		t.Fatalf("batch gap %v, want 500µs", gap)
	}
}

// The open loop times each request from its scheduled send time: a
// stall in one request shows up in the latency of the requests queued
// behind it, while their round trips stay short.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	ops := make([]op, 5)
	for i := range ops {
		ops[i].At = time.Duration(i) * time.Millisecond
	}
	stall := 30 * time.Millisecond
	res := runOpenLoop(context.Background(), ops, 1, time.Now(), time.Minute, func(_ context.Context, o *op) bool {
		if o.At == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, r := range res[1:] {
		due := ops[i+1].At
		if r.Latency < stall-due {
			t.Errorf("op %d latency %v hides the %v stall ahead of it", i+1, r.Latency, stall)
		}
		if r.Late < stall-due-time.Millisecond {
			t.Errorf("op %d started only %v late", i+1, r.Late)
		}
		if r.RTT > 10*time.Millisecond {
			t.Errorf("op %d round trip %v, want the short call's own time", i+1, r.RTT)
		}
	}
}

func TestPartitionsShard(t *testing.T) {
	spec := tenantSpec{Nodes: 16, Shards: 4}
	ok := engine.Decision{Reporters: []int{1, 9}, Silent: []int{5, 13}}
	if !partitionsShard(ok, spec, nil) {
		t.Error("a full partition of shard 1 was rejected")
	}
	missing := engine.Decision{Reporters: []int{1}, Silent: []int{5, 13}}
	if partitionsShard(missing, spec, nil) {
		t.Error("a decision missing member 9 was accepted")
	}
	if !partitionsShard(missing, spec, map[int]bool{9: true}) {
		t.Error("a decision leaving out isolated member 9 was rejected")
	}
	mixed := engine.Decision{Reporters: []int{1, 2}, Silent: []int{5, 9, 13}}
	if partitionsShard(mixed, spec, nil) {
		t.Error("a decision spanning two shards was accepted")
	}
}

// The layer ledger reconciles: against a live tibfit-serve at the
// reference rate, the replayed layers, the server's GC and the transport
// pass explain its CPU per report to within ledgerTolerance.
func TestLedgerReconcilesWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tibfit-serve")
	}
	if raceEnabled {
		t.Skip("compares in-process timings with a server built without -race")
	}
	bin := filepath.Join(t.TempDir(), "tibfit-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "../cmd/tibfit-serve").CombinedOutput(); err != nil {
		t.Fatalf("building tibfit-serve: %v\n%s", err, out)
	}
	tr := newTracer()
	rc, err := replayIngest(tr, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	o := options{seed: defaultSeed, serveBin: bin}
	if err := serveReference(context.Background(), o, rep, tr.stats("serve.batch"),
		tr.stats("aggregator.window_close_8"), rc); err != nil {
		t.Fatal(err)
	}
	share := rep.rows["ledger.unexplained_share"].V
	t.Logf("server %.0f ns/report, explained %.0f ns/report, unexplained share %.3f",
		rep.rows["server_cpu_ns_per_report"].V, rep.rows["ledger.explained_ns_per_report"].V, share)
	if rep.failed > 0 {
		t.Fatalf("ledger check failed: %v", rep.problems)
	}
}
