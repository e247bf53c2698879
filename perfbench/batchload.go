package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/tibfit/tibfit/internal/experiment"
)

// figureIDs are the 15 figures committed under figures/, in the order
// `make figures` writes them.
var figureIDs = []string{
	"ext-collusion-guard", "ext-reliability", "ext-resilience", "ext-sweep-lambda",
	"figure10", "figure11", "figure11-roots", "figure2", "figure3", "figure4",
	"figure5", "figure6", "figure7", "figure8", "figure9",
}

// campaignOptions are the options `make figures` uses on a 2-core host.
func campaignOptions(parallel int) experiment.FigureOptions {
	return experiment.FigureOptions{Runs: 3, Seed: 1, Parallel: parallel}
}

// fieldConfig is the field-100k input for a seed.
func fieldConfig(seed uint64) experiment.FieldConfig {
	return experiment.FieldConfig{Nodes: 100_000, Clusters: 1000, Events: 5, Seed: int64(seed)}
}

// fieldGolden is RunField's result on the default seed.
var fieldGolden = experiment.FieldResult{Nodes: 100000, Heads: 1010, Detected: 1, Declarations: 5}

// checkField checks a field result: exact on the default seed, plausible
// on any other. The head count is only held near Clusters: the election's
// MinHeads floor re-draws a short round at most MaxRetries times, then
// the last draw stands (leach.Config.MinHeads), so a seed can elect a few
// percent fewer heads (967 of 1000 on seed 108).
func checkField(rep *report, seed uint64, got experiment.FieldResult) {
	if seed == defaultSeed {
		rep.check(got == fieldGolden, "field result %+v, recorded %+v", got, fieldGolden)
		return
	}
	cfg := fieldConfig(seed)
	rep.check(got.Nodes == cfg.Nodes && got.Heads >= cfg.Clusters*9/10 && got.Declarations > 0 &&
		got.Detected >= 0 && got.Detected <= 1, "implausible field result %+v", got)
}

// loadGoldens reads the committed figure CSVs.
func loadGoldens(root string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(figureIDs))
	for _, id := range figureIDs {
		b, err := os.ReadFile(filepath.Join(root, "figures", id+".csv"))
		if err != nil {
			return nil, err
		}
		out[id] = b
	}
	return out, nil
}

// figureOrder is the seeded order a campaign generates the figures in;
// the figures themselves always use Seed 1, the seed the goldens were
// made with.
func figureOrder(seed uint64) []string {
	order := append([]string(nil), figureIDs...)
	r := rngFor(seed, wCampaign, "order")
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// batchPass is one timed call of a batch workload: its wall and CPU time.
type batchPass struct {
	Wall, CPU time.Duration
}

// runCampaignPass generates every figure once and checks each CSV
// byte for byte against its golden.
func runCampaignPass(rep *report, order []string, golden map[string][]byte, parallel int,
	each func(id string, d time.Duration)) (batchPass, error) {
	var p batchPass
	w0, c0 := time.Now(), processCPU()
	for _, id := range order {
		f0 := time.Now()
		fig, err := experiment.Generate(id, campaignOptions(parallel))
		if err != nil {
			return p, err
		}
		if each != nil {
			each(id, time.Since(f0))
		}
		rep.check(fig.CSV() == string(golden[id]), "%s differs from figures/%s.csv", id, id)
	}
	p.Wall, p.CPU = time.Since(w0), processCPU()-c0
	return p, nil
}

func runFieldPass(rep *report, seed uint64) (batchPass, error) {
	w0, c0 := time.Now(), processCPU()
	res, err := experiment.RunField(fieldConfig(seed))
	if err != nil {
		return batchPass{}, err
	}
	p := batchPass{Wall: time.Since(w0), CPU: processCPU() - c0}
	checkField(rep, seed, res)
	return p, nil
}

// minBatchPasses is the fewest timed calls a batch run makes, so its
// medians never rest on one sample.
const minBatchPasses = 3

// workerMain is the batch workloads' system-under-test process. It sets
// up (reads the goldens), prints "ready", waits for "go" on stdin (EOF
// means exit: a set-up timing spawn), runs timed calls until the run's
// seconds are spent, and prints its report as one JSON line.
func workerMain(o options, stdin io.Reader, stdout io.Writer) error {
	var golden map[string][]byte
	if o.workload == wCampaign {
		var err error
		if golden, err = loadGoldens(o.root); err != nil {
			return err
		}
	} else if err := fieldConfig(o.seed).Validate(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	line, _ := bufio.NewReader(stdin).ReadString('\n')
	if line != "go\n" {
		return nil
	}
	rep := newReport()
	var passes []batchPass
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	// The first call grows the heap and faults the code in; it is
	// checked like the others but reported apart, as warmup_s.
	for len(passes) < minBatchPasses+1 || time.Now().Before(deadline) {
		var p batchPass
		var err error
		if o.workload == wCampaign {
			p, err = runCampaignPass(rep, figureOrder(o.seed), golden, 2, nil)
		} else {
			p, err = runFieldPass(rep, o.seed)
		}
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	rep.add("warmup_s", "s", sample{passes[0].Wall.Seconds(), 1})
	// A batch job's latency is the wall time of one call.
	var walls, cpus, lat []float64
	for _, p := range passes[1:] {
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, p.CPU.Seconds())
		lat = append(lat, float64(p.Wall)/float64(time.Millisecond))
	}
	rep.add("wall_s", "s", sample{median(walls), len(walls)})
	rep.add("cpu_s", "s", sample{median(cpus), len(cpus)})
	rep.add("latency_p50_ms", "ms", sample{quantile(lat, 0.5), len(lat)})
	rep.add("latency_p90_ms", "ms", sample{quantile(lat, 0.9), len(lat)})
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", "MB", sample{rss, 1})
	return json.NewEncoder(stdout).Encode(workerReply{Rows: rep.rows, Attempted: rep.attempted,
		Failed: rep.failed, Problems: rep.problems})
}

// workerReply is the worker's report, as its last stdout line.
type workerReply struct {
	Rows      map[string]row
	Attempted int64
	Failed    int64
	Problems  []string
}

// worker is a spawned batch-workload process.
type worker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func spawnWorker(o options) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-worker", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-root", o.root)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := w.out.ReadString('\n'); err != nil || line != "ready\n" {
		w.in.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("worker did not get ready: %q %v", line, err)
	}
	return w, nil
}

// runBatchWorkload is campaign-figures or field-100k: set-up is timed as
// worker spawn → ready, setupRepeats times; the last worker then runs
// the timed calls.
func runBatchWorkload(_ context.Context, o options, rep *report) error {
	var setups []float64
	var w *worker
	for i := range setupRepeats {
		t0 := time.Now()
		var err error
		if w, err = spawnWorker(o); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			w.in.Close()
			if err := w.cmd.Wait(); err != nil {
				return err
			}
		}
	}
	rep.add("setup_s", "s", sample{median(setups), len(setups)})
	defer func() { _ = w.cmd.Wait() }()
	if _, err := io.WriteString(w.in, "go\n"); err != nil {
		return err
	}
	w.in.Close()
	var reply workerReply
	if err := json.NewDecoder(w.out).Decode(&reply); err != nil {
		return fmt.Errorf("reading worker report: %w", err)
	}
	for k, v := range reply.Rows {
		rep.rows[k] = v
	}
	rep.attempted += reply.Attempted
	rep.failed += reply.Failed
	rep.problems = append(rep.problems, reply.Problems...)
	rep.add("failed_share", "share", sample{float64(rep.failed) / float64(max(rep.attempted, 1)), int(rep.attempted)})
	return nil
}
