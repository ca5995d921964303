package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// tags identify the machine and the code a result was measured on.
// Results whose machine tags differ are not comparable.
type tags struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func (t tags) machine() [4]string {
	return [4]string{t.CPU, fmt.Sprint(t.NProc), fmt.Sprint(t.GOMAXPROCS), t.GoVersion}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceCommit names the measured code: the git commit of the work
// tree at root, or "unknown" where there is none. git does not look
// above root, so a checkout inside another repository is not taken for
// that repository's commit.
func sourceCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// record is the full result of one run, written next to the build.
type record struct {
	Tags      tags                 `json:"tags"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	Latency   map[string]summary   `json:"latency,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
	SelfMS    map[string]float64   `json:"span_self_ms,omitempty"`
	Checks    map[string][2]int    `json:"checks,omitempty"` // name -> [passed, run]
	Extra     map[string]float64   `json:"extra,omitempty"`
	// Steal is the share of CPU time the hypervisor took from this
	// machine (from /proc/stat), by measured part of the run, over the
	// rounds, windows and boots reported; Rounds counts, per part, the
	// rounds (or windows, or boots) run and those spoiled by steal, and
	// RoundSteal lists each one's steal in the order they ran.
	Steal      map[string]float64   `json:"steal"`
	Rounds     map[string][2]int    `json:"rounds"`
	RoundSteal map[string][]float64 `json:"round_steal"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// compareRecords prints the metric-by-metric ratio of two run records,
// refusing when their machine tags differ.
func compareRecords(aPath, bPath string) error {
	var a, b record
	for _, x := range []struct {
		p string
		r *record
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(x.p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.p, err)
		}
	}
	if a.Tags.machine() != b.Tags.machine() {
		return fmt.Errorf("refusing to compare: machine tags differ: %v vs %v", a.Tags.machine(), b.Tags.machine())
	}
	if a.Tags.Workload != b.Tags.Workload || a.Tags.Seconds != b.Tags.Seconds {
		return fmt.Errorf("refusing to compare: workload/seconds differ: %s/%d vs %s/%d",
			a.Tags.Workload, a.Tags.Seconds, b.Tags.Workload, b.Tags.Seconds)
	}
	names := sortedKeys(a.Metrics)
	fmt.Printf("%-32s %14s %14s %8s\n", "metric", a.Tags.Commit, b.Tags.Commit, "b/a")
	for _, n := range names {
		bv, ok := b.Metrics[n]
		if !ok {
			continue
		}
		av := a.Metrics[n]
		fmt.Printf("%-32s %14.6g %14.6g %8.3f  %s\n", n, av.Value, bv.Value, ratio(bv.Value, av.Value), av.Unit)
	}
	return nil
}
