package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverGOMAXPROCS is the server process's P count: the ROADMAP's target
// is work per report on one core.
const serverGOMAXPROCS = 1

// clockTick is the /proc/<pid>/stat time unit (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// gcStats accumulates the server's GODEBUG=gctrace=1 lines.
type gcStats struct {
	Count   int
	PauseMS float64 // stop-the-world clock time: sweep termination + mark termination
	CPUMS   float64 // all GC CPU phases
}

// server is a running tibfit-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
	done chan struct{} // closed once the process has been reaped

	mu sync.Mutex
	gc gcStats
}

// startServer spawns tibfit-serve on a free loopback port with one P,
// pinned to one CPU, with gctrace on, and waits for /healthz. The caller
// must call stop.
func startServer(bin string, client *http.Client) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-tenant", "boot", "-nodes", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS), "GODEBUG=gctrace=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(cmd); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, http: client, done: make(chan struct{})}
	var pipes sync.WaitGroup
	pipes.Add(1)
	go func() {
		defer pipes.Done()
		s.scanGC(stderr)
	}()
	addr := make(chan string, 1)
	pipes.Add(1)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "tibfit-serve: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	go func() {
		pipes.Wait() // both pipes drained before Wait closes them
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("healthz never answered OK: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the process and waits until it has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// scanGC parses gctrace lines of the form
// "gc 3 @0.1s 1%: 0.01+0.2+0.003 ms clock, 0.01+0.1/0.05/0+0.003 ms cpu, ...".
func (s *server) scanGC(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, after, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		parts := strings.Split(after, ", ")
		if len(parts) < 2 {
			continue
		}
		clock := splitNums(strings.TrimSuffix(parts[0], " ms clock"))
		cpu := splitNums(strings.TrimSuffix(parts[1], " ms cpu"))
		s.mu.Lock()
		s.gc.Count++
		if len(clock) == 3 {
			s.gc.PauseMS += clock[0] + clock[2]
		}
		for _, v := range cpu {
			s.gc.CPUMS += v
		}
		s.mu.Unlock()
	}
}

func splitNums(s string) []float64 {
	var out []float64
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == '+' || r == '/' }) {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func (s *server) gcSnapshot() gcStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gc
}

// cpuTime is the server's utime+stime from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// do sends one request and returns the status and body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON GETs path and decodes a 200 reply into v.
func (s *server) getJSON(ctx context.Context, path string, v any) error {
	code, b, err := s.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// createTenants creates the shape's tenants over the API.
func (s *server) createTenants(ctx context.Context, shape serveShape) error {
	for _, t := range shape.Tenants {
		body, _ := json.Marshal(map[string]any{"scheme": t.Scheme, "tout": t.Tout,
			"nodes": t.Nodes, "shards": t.Shards, "fault_rate": t.FaultRate,
			"removal_threshold": t.RemovalThreshold})
		code, b, err := s.do(ctx, http.MethodPost, "/v1/tenants/"+t.Name, body)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("creating tenant %s: %d %s", t.Name, code, b)
		}
	}
	return nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// newClient is the benchmark's HTTP client: at most two connections to
// the server, one per generator worker.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}, Timeout: 30 * time.Second}
}

// setupServer starts the server setupRepeats times, timing spawn →
// healthz → tenants created, and keeps the last one running. It returns
// the running server and the median set-up time.
func setupServer(ctx context.Context, bin string, client *http.Client, shape serveShape) (*server, sample, error) {
	var times []float64
	for i := range setupRepeats {
		t0 := time.Now()
		s, err := startServer(bin, client)
		if err != nil {
			return nil, sample{}, err
		}
		if err := s.createTenants(ctx, shape); err != nil {
			s.stop()
			return nil, sample{}, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			s.stop()
			client.CloseIdleConnections()
			continue
		}
		return s, sample{median(times), len(times)}, nil
	}
	panic("unreachable")
}
