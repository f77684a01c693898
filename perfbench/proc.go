package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procResult is one finished program process.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set size
	stderr []byte
}

// runProc runs bin to completion and measures its wall time, CPU time and
// peak RSS. A non-zero exit is an error carrying the tail of stderr; the
// measurements are returned either way.
//
// Peak RSS is the child's own VmHWM, sampled every rssPoll while it runs.
// The rusage of a finished child is no use for it: Go starts children with
// CLONE_VM, so the child execs from the harness's address space and Linux
// folds the harness's own peak RSS into the child's ru_maxrss.
func runProc(bin string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Start()
	var res procResult
	if err == nil {
		done := make(chan struct{})
		sampled := make(chan float64)
		go func() { sampled <- sampleRSS(cmd.Process.Pid, done) }()
		err = cmd.Wait()
		close(done)
		res.rssMB = <-sampled
	}
	res.wall, res.stderr = time.Since(t0), stderr.Bytes()
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			res.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastBytes(res.stderr, 600))
	}
	return res, nil
}

// rssPoll is how often runProc samples a running child's peak RSS.
const rssPoll = 2 * time.Millisecond

// sampleRSS reads pid's VmHWM every rssPoll until done closes, and returns
// the last value read: VmHWM only grows, so that is the peak up to the
// child's last few milliseconds.
func sampleRSS(pid int, done <-chan struct{}) float64 {
	var peak float64
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	for {
		if v, err := procPeakRSS(pid); err == nil {
			peak = v // once the child has exited, reads fail and the last value stands
		}
		select {
		case <-done:
			return peak
		case <-tick.C:
		}
	}
}

func lastBytes(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return strings.TrimSpace(string(b))
}

// procCPU reads a live process's user + system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procPeakRSS reads a live process's peak resident set size (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU reads the host-wide CPU tick counters from /proc/stat: the
// total and the part stolen by the hypervisor.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// fingerprint describes the host and the code a result set came from.
// Results from hosts with different fingerprints are reported side by
// side, never compared.
func fingerprint(cfg config) string {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"seed":       cfg.seed,
		"scale":      benchScale,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds.Seconds(),
	}
	b, _ := json.Marshal(fp) // plain strings and numbers only
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit read from .git in the working
// directory, or "none" in a checkout without one (the source digest still
// identifies the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)) // detached HEAD holds the hash
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs")) // absent: no packed refs
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// sourceDigest hashes go.mod and every Go file under cmd/ and internal/:
// the code the measured binaries are built from.
func sourceDigest() string {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
