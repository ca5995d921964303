package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one trajserve process the benchmark started.
type proc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts trajserve with args and returns once GET /v1/healthz
// answers 200, with the seconds from launch to that answer.
func boot(bin string, args []string, logPath string) (*proc, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Should the benchmark itself die, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, err
	}
	p := &proc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: lf}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant: the benchmark kills its servers
		close(p.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := t0.Add(150 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0).Seconds(), nil
			}
		}
		select {
		case <-p.exited:
			lf.Close()
			return nil, 0, fmt.Errorf("trajserve exited during boot (log %s)", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("trajserve not healthy after %v", time.Since(t0))
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-p.exited
	p.log.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// getJSON decodes GET base+path into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
