package main

import (
	"bufio"
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
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one murphyd child process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *tailBuffer
	done   chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after done
}

// tailBuffer keeps the last few KiB a child writes, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 8<<10 {
		t.buf = append([]byte(nil), t.buf[n-(8<<10):]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// newHTTPClient returns the load generator's client: at most two
// connections to the daemon.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon spawns murphyd with args plus -listen on a free loopback port.
func startDaemon(bin string, args []string, client *http.Client) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	d := &daemon{
		cmd:    exec.Command(bin, append(append([]string(nil), args...), "-listen", addr)...),
		base:   "http://" + addr,
		client: client,
		log:    &tailBuffer{},
		done:   make(chan struct{}),
	}
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start murphyd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("murphyd exited before ready (%v): %s", d.err, d.log)
		default:
		}
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("murphyd not ready after %s: %s", timeout, d.log)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes too long.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.exitErr()
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("murphyd did not drain within 60s and was killed")
	}
}

func (d *daemon) exitErr() error {
	if d.err != nil {
		return fmt.Errorf("murphyd exited: %v: %s", d.err, d.log)
	}
	return nil
}

// obsStats is the part of murphyd's /stats snapshot the benchmark reads.
type obsStats struct {
	Stages []struct {
		Stage string `json:"stage"`
		Calls int64  `json:"calls"`
		Wall  int64  `json:"wall_ns"`
	} `json:"stages"`
	Counters map[string]int64 `json:"counters"`
}

// stage returns a stage's call count and total wall time.
func (s *obsStats) stage(name string) (calls int64, wall time.Duration) {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st.Calls, time.Duration(st.Wall)
		}
	}
	return 0, 0
}

func (d *daemon) stats() (*obsStats, error) {
	var s obsStats
	if err := d.getJSON("/stats", &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// getJSON GETs path and decodes a 200 response into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// post sends a JSON body and returns the status and response body.
func (d *daemon) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req)
}

// get sends a GET and returns the status and response body.
func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return d.do(req)
}

func (d *daemon) do(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
