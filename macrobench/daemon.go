package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	apiv1 "macroflow/api/v1"
	"macroflow/internal/obs"
)

// daemonWorkers is macroflowd's worker count and the benchmark's
// submitter count: all load comes from at most nproc (2 on the reference
// box) connections.
const daemonWorkers = 2

// pollInterval is how often a submitter polls its job's status.
const pollInterval = 5 * time.Millisecond

// daemon is one macroflowd process the benchmark started.
type daemon struct {
	cmd       *exec.Cmd
	client    *apiv1.Client
	addr      string
	debugAddr string
	exited    chan struct{}
	logMu     sync.Mutex
	logTail   []string
}

var (
	listenLine = regexp.MustCompile(`listening on (\S+)`)
	debugLine  = regexp.MustCompile(`pprof debug server on (\S+)`)
)

// startDaemon launches macroflowd on the given -cache directory and
// waits until it serves requests.
func startDaemon(e *env, cacheDir string) (*daemon, error) {
	cmd := exec.Command(e.daemon,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers),
		"-cache", cacheDir,
		"-flight-dir", e.scratch,
		"-estimator", e.refPath(estimatorFile))
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start macroflowd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	ready := make(chan struct{})
	logDone := make(chan struct{})
	go func() {
		d.readLog(stderr, ready)
		close(logDone)
	}()
	// Wait closes the log pipe, so it runs only once the log is drained.
	go func() {
		<-logDone
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
	case <-d.exited:
		return nil, fmt.Errorf("macroflowd exited during start-up: %s", d.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("macroflowd did not start: %s", d.tail())
	}
	d.client = apiv1.NewClient("http://" + d.addr)
	if _, err := d.client.Health(context.Background()); err != nil {
		d.stop()
		return nil, fmt.Errorf("macroflowd health: %w", err)
	}
	return d, nil
}

// readLog drains the daemon's log, picks up its listen addresses and
// keeps the last lines for error reports.
func (d *daemon) readLog(r io.Reader, ready chan<- struct{}) {
	sc := bufio.NewScanner(r)
	signaled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		if m := listenLine.FindStringSubmatch(line); m != nil {
			d.addr = m[1]
		}
		if m := debugLine.FindStringSubmatch(line); m != nil {
			d.debugAddr = m[1]
		}
		d.logTail = append(d.logTail, line)
		if len(d.logTail) > 20 {
			d.logTail = d.logTail[1:]
		}
		up := d.addr != "" && d.debugAddr != ""
		d.logMu.Unlock()
		if up && !signaled {
			signaled = true
			close(ready)
		}
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// totalAllocMB reads the daemon's cumulative heap allocation from its
// pprof heap endpoint (the runtime.MemStats block of ?debug=1).
func (d *daemon) totalAllocMB() (float64, error) {
	data, err := httpGet("http://" + d.debugAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)`).FindSubmatch(data)
	if m == nil {
		return 0, fmt.Errorf("no TotalAlloc in the heap profile")
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return v / 1e6, err
}

// queueDepthPeak scrapes GET /metrics for the queue's high-water mark.
func (d *daemon) queueDepthPeak() (float64, error) {
	data, err := httpGet("http://" + d.addr + "/metrics")
	if err != nil {
		return 0, err
	}
	samples, err := obs.ParsePrometheusText(data)
	if err != nil {
		return 0, err
	}
	for _, s := range samples {
		if s.Name == "macroflowd_queue_depth_peak" {
			return s.Value, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no macroflowd_queue_depth_peak")
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// jobResult is one finished (or failed) job as the client saw it.
type jobResult struct {
	// latency is submit until the result was read, less steal; wall is
	// the same interval as the server's clock sees it.
	latency, wall float64
	status        *apiv1.JobStatus
	res           *apiv1.CompileResult
	err           error
}

// serverSeconds is the daemon's own submit→finish time.
func (j *jobResult) serverSeconds() float64 {
	return float64(j.status.FinishedMs-j.status.SubmittedMs) / 1000
}

// finish fetches a finished job's result.
func finish(ctx context.Context, c *apiv1.Client, st *apiv1.JobStatus, sw stopwatch) jobResult {
	out := jobResult{status: st}
	if st.State != apiv1.JobDone {
		out.err = fmt.Errorf("job %s %s: %v", st.ID, st.State, st.Error)
		return out
	}
	out.res, out.err = c.Result(ctx, st.ID)
	out.latency, out.wall = sw.seconds(), sw.wall()
	return out
}

// closedLoop runs the requests through daemonWorkers closed-loop
// submitters: each submits one job, waits for it and reads its result
// before taking the next request. It returns the results in request
// order and the wall time.
func closedLoop(d *daemon, reqs []*apiv1.CompileRequest) ([]jobResult, float64) {
	ctx := context.Background()
	out := make([]jobResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	sw := startStopwatch()
	for s := 0; s < daemonWorkers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				job := startStopwatch()
				st, err := d.client.Submit(ctx, reqs[i])
				if err == nil {
					st, err = d.client.Wait(ctx, st.ID, pollInterval)
				}
				if err != nil {
					out[i] = jobResult{err: err}
					continue
				}
				out[i] = finish(ctx, d.client, st, job)
			}
		}()
	}
	wg.Wait()
	return out, sw.seconds()
}

// burst submits every request at once over one connection and then
// polls them all, so jobs beyond the worker count wait in the queue.
func burst(d *daemon, reqs []*apiv1.CompileRequest) []jobResult {
	ctx := context.Background()
	out := make([]jobResult, len(reqs))
	ids := make([]string, len(reqs))
	starts := make([]stopwatch, len(reqs))
	for i, req := range reqs {
		starts[i] = startStopwatch()
		st, err := d.client.Submit(ctx, req)
		if err != nil {
			out[i].err = err
			continue
		}
		ids[i] = st.ID
	}
	for pending := len(reqs); pending > 0; time.Sleep(pollInterval) {
		pending = 0
		for i, id := range ids {
			if id == "" {
				continue
			}
			st, err := d.client.Job(ctx, id)
			switch {
			case err != nil:
				out[i].err = err
			case st.State == apiv1.JobQueued || st.State == apiv1.JobRunning:
				pending++
				continue
			default:
				out[i] = finish(ctx, d.client, st, starts[i])
			}
			ids[i] = ""
		}
	}
	return out
}

// setServiceMetrics reports the service layer's per-job metrics from
// finished jobs: queue wait and run time from the job status timestamps,
// the client-side overhead over the server's submit→finish time, the
// queue's peak depth, and the cost of decoding the requests.
func setServiceMetrics(r *run, d *daemon, reqs []*apiv1.CompileRequest, jobs []jobResult) {
	var wait, runS, over []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		st := j.status
		wait = append(wait, float64(st.StartedMs-st.SubmittedMs)/1000)
		runS = append(runS, float64(st.FinishedMs-st.StartedMs)/1000)
		over = append(over, j.wall-j.serverSeconds())
	}
	r.set("macroflowd.queue_wait_s", mean(wait))
	r.set("macroflowd.run_s", mean(runS))
	r.set("macroflowd.overhead_s", mean(over))
	peak, err := d.queueDepthPeak()
	if err != nil {
		r.fail("scrape /metrics: %v", err)
	}
	r.set("macroflowd.queue_depth_peak", peak)
	r.set("apiv1.decode_s", decodeSeconds(r, reqs))
}

// decodeSeconds times apiv1.DecodeRequest on the encoded requests and
// returns the mean per request.
func decodeSeconds(r *run, reqs []*apiv1.CompileRequest) float64 {
	var total time.Duration
	for _, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			r.fail("encode request: %v", err)
			continue
		}
		t := time.Now()
		_, err = apiv1.DecodeRequest(bytes.NewReader(data))
		total += time.Since(t)
		if err != nil {
			r.fail("decode request: %v", err)
		}
	}
	return total.Seconds() / float64(len(reqs))
}
