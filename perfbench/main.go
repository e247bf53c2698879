// Command perfbench is the repository benchmark: four workloads that
// drive tibfit-serve out of process and the batch campaigns in process,
// print every end-to-end metric (or, traced, every per-layer metric) by
// name, unit and sample count, and end with one JSON result line. See
// README.md in this directory for the workloads, metrics and
// predictions; run.sh builds the binaries and runs it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	root     string // checkout root: figures/ and BENCHMARK.json live here
	out      string // directory for spans and profiles
	worker   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: serve-ingest, serve-mixed, campaign-figures or field-100k")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the inputs are a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1: the traced run, printing per-layer metrics")
	fs.StringVar(&o.serveBin, "serve-bin", ".bench_build/tibfit-serve", "tibfit-serve binary")
	fs.StringVar(&o.root, "root", ".", "repository checkout root")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans and profiles")
	fs.BoolVar(&o.worker, "worker", false, "internal: run as a batch workload's worker process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !slices.Contains(workloads, o.workload) || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload in %v, -seconds > 0, -trace 0|1\n", workloads)
		return 2
	}
	if o.worker {
		if err := workerMain(o, stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	spec, err := loadSpec(o.root + "/BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := newReport()
	// Host calibration, in every result: what the host can do in
	// parallel, so speedups are judged against it.
	rep.add("host.spin_ceiling", "x", sample{spinCeiling(), 2})
	rep.add("host.nproc", "count", sample{float64(runtime.NumCPU()), 1})
	rep.add("host.gomaxprocs", "count", sample{float64(runtime.GOMAXPROCS(0)), 1})
	rep.add("server.gomaxprocs", "count", sample{serverGOMAXPROCS, 1})
	if err := runWorkload(ctx, o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %v; %s, nproc %d, GOMAXPROCS bench %d server %d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), serverGOMAXPROCS)
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	if err := rep.write(stdout, spec, o.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options, rep *report) error {
	if o.trace {
		return runTraced(ctx, o, rep)
	}
	switch o.workload {
	case wServeIngest:
		return runServeIngest(ctx, o, rep)
	case wServeMixed:
		return runServeMixed(ctx, o, rep)
	default:
		return runBatchWorkload(ctx, o, rep)
	}
}
