package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one running whirlpoold process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	args []string
	log  *os.File
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs whirlpoold with the workload's boot flags. Its
// stderr goes to logPath. The daemon is killed if this process dies.
func startDaemon(bin, logPath string, w workload, c *corpus) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	var args []string
	if w.snapshot {
		args = append(args, "-snapshot", c.snapPath)
	} else {
		args = append(args, "-file", c.xmlPath)
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	args = append(args, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = log
	cmd.Stderr = log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting whirlpoold: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), args: args, log: log, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed daemon reports the signal; stop is the only expected exit
		log.Close()
		close(d.exited)
	}()
	return d, nil
}

// stop kills the daemon and waits for it to exit. It may be called
// more than once.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only when the daemon already exited
	<-d.exited
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// queryResponse is the part of a /query response the benchmark reads.
type queryResponse struct {
	Answers []answer `json:"answers"`
}

// post sends one /query body and returns the raw response body.
func post(ctx context.Context, cl *http.Client, base string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// verify decodes a /query response and checks it against want.
func verify(raw []byte, want []answer) error {
	var r queryResponse
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return checkAnswers(r.Answers, want)
}

// bootTimeout bounds how long one boot may take to its first answer.
const bootTimeout = 60 * time.Second

// awaitFirstAnswer polls the daemon with the probe request until it
// returns a correct answer and reports the time since start. Refused
// connections mean the daemon is still booting; any other failure ends
// the wait.
func awaitFirstAnswer(d *daemon, start time.Time, body []byte, want []answer) (time.Duration, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	for {
		raw, err := post(ctx, cl, d.base, body)
		if err == nil {
			took := time.Since(start)
			if err := verify(raw, want); err != nil {
				return 0, fmt.Errorf("first answer: %w", err)
			}
			return took, nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || ctx.Err() != nil {
			return 0, fmt.Errorf("waiting for whirlpoold %v: %w", d.args, err)
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("whirlpoold %v exited before answering; see %s", d.args, d.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
}

// metricsSnapshot is a parsed /metrics JSON response, keyed by metric
// name with "{endpoint=…}" appended for per-endpoint series.
type metricsSnapshot map[string]daemonMetric

type daemonMetric struct {
	Value     int64 `json:"value"`
	Histogram *struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histogram"`
}

// scrapeMetrics reads the daemon's /metrics.
func scrapeMetrics(d *daemon) (metricsSnapshot, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	resp, err := cl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	var body struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			daemonMetric
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(metricsSnapshot, len(body.Metrics))
	for _, m := range body.Metrics {
		key := m.Name
		if ep := m.Labels["endpoint"]; ep != "" {
			key += "{endpoint=" + ep + "}"
		}
		if _, ok := m.Labels["code"]; ok || m.Labels["shard"] != "" {
			continue // per-code and per-shard series are not read
		}
		out[key] = m.daemonMetric
	}
	return out, nil
}

// value returns a counter or gauge value (0 when absent).
func (s metricsSnapshot) value(name string) float64 { return float64(s[name].Value) }

// hist returns a histogram's count and sum (0 when absent).
func (s metricsSnapshot) hist(name string) (count, sum float64) {
	if h := s[name].Histogram; h != nil {
		return float64(h.Count), float64(h.Sum)
	}
	return 0, 0
}
