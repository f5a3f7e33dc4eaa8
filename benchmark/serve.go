package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os/exec"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serveProc is a running cmd/serve.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan error
	rss    *rssWatch
	// ready is the time from spawning the process to its first answered
	// GET /metrics.
	ready time.Duration
}

// startServe spawns cmd/serve on a free loopback port and waits until it
// answers GET /metrics.
func (b *bench) startServe(args ...string) (*serveProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	sp := &serveProc{base: "http://" + addr, done: make(chan error, 1)}
	sp.cmd = command(b.serve, append([]string{"-addr", addr}, args...)...)
	sp.cmd.Stderr = &sp.stderr
	start := time.Now()
	if err := sp.cmd.Start(); err != nil {
		return nil, err
	}
	sp.rss = watchRSS(sp.cmd.Process.Pid)
	go func() { sp.done <- sp.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-sp.done:
			sp.rss.peakMB()
			return nil, fmt.Errorf("cmd/serve exited before answering: %v\n%s", err, sp.stderr.String())
		default:
		}
		if resp, err := probe.Get(sp.base + "/metrics"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				sp.ready = time.Since(start)
				return sp, nil
			}
		}
		if time.Since(start) > 20*time.Second {
			sp.kill()
			return nil, errors.New("cmd/serve did not answer /metrics within 20 s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop shuts the server down gracefully (SIGTERM flushes its store) and
// returns its peak resident set size while serving, in MiB.
func (sp *serveProc) stop() (float64, error) {
	rss := sp.rss.peakMB()
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	var err error
	select {
	case err = <-sp.done:
	case <-time.After(30 * time.Second):
		sp.kill()
		return 0, errors.New("cmd/serve did not stop within 30 s of SIGTERM")
	}
	if err != nil {
		return 0, fmt.Errorf("cmd/serve: %v\n%s", err, tail(sp.stderr.String(), 2000))
	}
	return rss, nil
}

// kill ends the process and waits for it.
func (sp *serveProc) kill() {
	sp.rss.peakMB()
	sp.cmd.Process.Kill()
	<-sp.done
}

// serveMetrics is the part of GET /metrics the benchmark reads.
type serveMetrics struct {
	Verify struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		DiskHits  uint64 `json:"disk_hits"`
	} `json:"verify"`
	Server struct {
		Accepted       uint64 `json:"accepted"`
		RejectedQueue  uint64 `json:"rejected_queue"`
		RejectedRate   uint64 `json:"rejected_rate"`
		BatchedRuns    uint64 `json:"batched_runs"`
		BatchedStimuli uint64 `json:"batched_stimuli"`
		ScalarRuns     uint64 `json:"scalar_runs"`
	} `json:"server"`
}

func (sp *serveProc) metrics(c *http.Client) (serveMetrics, error) {
	var m serveMetrics
	resp, err := c.Get(sp.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// newClient returns an HTTP client holding one connection per load client.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// statusError is a non-200 reply.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, tail(e.body, 200)) }

// post sends one JSON request and returns the reply body; any status other
// than 200 is a *statusError.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode, string(out)}
	}
	return out, nil
}

// loadStats summarises a closed-loop phase.
type loadStats struct {
	latMS     []float64 // successful requests only
	completed int
	failed    int // every failed request: transport errors, non-200, wrong replies
	rejected  int // the 429s among the failures
	wrong     int // the wrong replies among the failures
	elapsed   time.Duration
	problems  []string // the first few failures per client
}

// closedLoop runs clients concurrent callers until dur has passed or,
// with limit > 0, requests 0..limit-1 have been sent. Each caller sends
// its next request only after the previous reply arrived, taking request
// indexes from one shared counter; do sends request i and checks the
// reply. A request that fails, is refused (429) or gets a wrong reply
// counts as failed and contributes no latency sample.
func closedLoop(clients int, dur time.Duration, limit int, do func(i int) error) loadStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st loadStats
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var failed, rejected, wrong int
			var problems []string
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					break
				}
				t := time.Now()
				err := do(i)
				ms := sinceMS(t)
				if err == nil {
					lat = append(lat, ms)
					continue
				}
				failed++
				var se *statusError
				switch {
				case errors.As(err, &se) && se.status == http.StatusTooManyRequests:
					rejected++
				case errors.Is(err, errMismatch):
					wrong++
				}
				if len(problems) < 5 {
					problems = append(problems, fmt.Sprintf("request %d: %v", i, err))
				}
			}
			mu.Lock()
			st.latMS = append(st.latMS, lat...)
			st.completed += len(lat)
			st.failed += failed
			st.rejected += rejected
			st.wrong += wrong
			st.problems = append(st.problems, problems...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// report folds a closed-loop phase into a run: attempts and failures.
// Wrong replies fail the run's correctness gate; other failures are counted
// and logged. It returns the work per second, successful requests per
// second.
func (st loadStats) report(r *runResult) float64 {
	r.Attempted += st.completed + st.failed
	r.Failed += st.failed
	for _, p := range st.problems {
		if st.wrong > 0 {
			r.fail("%s", p)
		} else {
			log.Printf("%s: %s", r.Workload, p)
		}
	}
	r.extra("rejected", float64(st.rejected), "count")
	r.extra("error_ratio", float64(st.failed)/float64(max(st.completed+st.failed, 1)), "ratio")
	return float64(st.completed) / st.elapsed.Seconds()
}

// serveStarts is how many times a serve workload starts the server to
// sample its set-up.
const serveStarts = 5

// serveSetups starts cmd/serve serveStarts times with the same arguments
// and returns the median set-up time with the last server still running;
// the others are stopped. Set-up runs from spawning the process to its
// first answer, plus warm (when given), which brings the server to the
// state the timed phase starts from.
func (b *bench) serveSetups(warm func(*serveProc) error, args ...string) (float64, *serveProc, error) {
	var setups []float64
	for i := 0; ; i++ {
		sp, err := b.startServe(args...)
		if err != nil {
			return 0, nil, err
		}
		t := time.Now()
		if warm != nil {
			if err := warm(sp); err != nil {
				sp.kill()
				return 0, nil, err
			}
		}
		setups = append(setups, (sp.ready + time.Since(t)).Seconds())
		if i == serveStarts-1 {
			return median(setups), sp, nil
		}
		if _, err := sp.stop(); err != nil {
			return 0, nil, err
		}
	}
}
