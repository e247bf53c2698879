package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sent is one scheduled request's outcome.
type sent struct {
	Started bool
	OK      bool
	Late    time.Duration // actual send − scheduled send
	Latency time.Duration // completion − scheduled send
	RTT     time.Duration // completion − actual send
}

// sleepUntil waits for t in nanosleep(2), which blocks only the calling
// thread and wakes within the kernel's timer slack (tens of µs).
// time.Sleep overshot sub-millisecond waits by ~0.8 ms at the median on
// a 2-vCPU Linux host, which made the generator's own lateness most of
// the measured ingest latency. The remaining error is recorded per
// request as lateness.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; lateness is measured anyway
	}
}

// runOpenLoop sends ops on their schedule from `workers` goroutines
// (one connection each): every worker takes the next op in schedule
// order, waits for its send time if it is early, and sends. A slow
// server does not slow the schedule, so latency is timed from each op's
// scheduled send time and a stall shows up in every request behind it.
// No op starts later than cutoff after start; the rest are the backlog
// (Started false). exec reports whether the request succeeded.
func runOpenLoop(ctx context.Context, ops []op, workers int, start time.Time, cutoff time.Duration,
	exec func(ctx context.Context, o *op) bool) []sent {
	out := make([]sent, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				due := start.Add(ops[i].At)
				if time.Since(start) > cutoff {
					return
				}
				sleepUntil(due)
				t0 := time.Now()
				ok := exec(ctx, &ops[i])
				t1 := time.Now()
				out[i] = sent{Started: true, OK: ok, Late: t0.Sub(due), Latency: t1.Sub(due), RTT: t1.Sub(t0)}
			}
		}()
	}
	wg.Wait()
	return out
}

// passStats summarizes one open-loop pass over the ops of the kinds in
// keep.
type passStats struct {
	Scheduled, Started, Failed int
	Latency, Late, RTT         []float64     // ms, started requests in schedule order
	Last                       time.Duration // latest completion, from the pass start
}

func summarize(ops []op, res []sent, keep func(opKind) bool) passStats {
	var p passStats
	for i, r := range res {
		if !keep(ops[i].Kind) {
			continue
		}
		p.Scheduled++
		if !r.Started {
			continue
		}
		p.Started++
		if !r.OK {
			p.Failed++
		}
		p.Latency = append(p.Latency, float64(r.Latency)/float64(time.Millisecond))
		p.Late = append(p.Late, float64(r.Late)/float64(time.Millisecond))
		p.RTT = append(p.RTT, float64(r.RTT)/float64(time.Millisecond))
		if end := ops[i].At + r.Latency; end > p.Last {
			p.Last = end
		}
	}
	return p
}
