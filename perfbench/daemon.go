package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/figset"
)

// The daemon_live schedule: all but the first two days land one by one,
// evenly spread over the measured window; queries arrive open-loop as a
// Poisson stream at queryRate over queryConns keep-alive connections; and
// lockdownd runs liveShards pipeline shards and polls its root every
// tailPoll. At 1% scale a seal costs the daemon at most about 30 ms, well
// inside the landing interval, so the lag stays flat.
const (
	livePrefix = 2 // days present before the window opens
	liveShards = 2

	queryRate    = 100.0 // queries per second
	queryConns   = 2
	tailPoll     = 5 * time.Millisecond
	queryTimeout = 5 * time.Second
	// finalGrace bounds how long after the last landing the final epoch
	// may take before the run counts it as a timeout.
	finalGrace = 30 * time.Second
)

// liveInterval spreads the k landing days and the COMPLETE sentinel
// evenly over the measured window.
func liveInterval(seconds time.Duration, k int) time.Duration {
	return max(time.Millisecond, seconds/time.Duration(k+1))
}

// liveRun is one measured daemon_live window.
type liveRun struct {
	first   int           // first epoch sealed inside the window
	lags    []float64     // seal lag per epoch from first on, ms
	samples []sample      // every scheduled query
	cpu     time.Duration // daemon CPU during the window
	rssMB   float64       // daemon peak RSS
	window  time.Duration // window open to final epoch seen
}

// runDaemon is the daemon_live workload: lockdownd follows a root into
// which the harness lands the dataset's last days on a fixed schedule,
// while open-loop queries run; the final epoch must match the reference.
func runDaemon(e *env) (*report, error) {
	if err := prepare(e, 0); err != nil {
		return nil, err
	}
	rep := &report{}
	lr, err := runLive(e, rep)
	if err != nil {
		return nil, err
	}
	var lat, late []float64
	for _, s := range lr.samples {
		lat = append(lat, s.latencyMS())
		late = append(late, s.lateMS())
	}
	rep.add("setup_s", "s", median(e.setup), fmt.Sprintf("median of %d set-ups (tracegen)", len(e.setup)))
	// Query latency is gated at its 10th percentile: host steal stretches
	// some queries of a window and not others, and the low end of the
	// distribution is the part it reaches least. The median and tail stay
	// in the note and in the human lines below.
	rep.add("latency_ms", "ms", percentile(sorted(lat), 10), "10th percentile of query latency from due time: "+summary(lat, "ms"))
	addCPU(rep, e, lr.cpu.Seconds(), fmt.Sprintf("daemon CPU over the %.1fs window (%d days, %d queries)", lr.window.Seconds(), len(lr.lags), len(lr.samples)))
	rep.add("peak_rss_mb", "MB", lr.rssMB, "daemon peak RSS")
	addLiveExtras(rep, lr, lat, late)
	return rep, nil
}

func addLiveExtras(rep *report, lr *liveRun, lat, late []float64) {
	lags := sorted(lr.lags)
	q := sorted(lat)
	rep.addExtra("seal_lag_ms.p50", "ms", median(lags), "day d+1 visible to epoch d published: "+summary(lags, "ms"))
	rep.addExtra("seal_lag_ms.p90", "ms", percentile(lags, 90), fmt.Sprintf("n=%d", len(lags)))
	rep.addExtra("query_ms.p50", "ms", median(q), fmt.Sprintf("n=%d", len(q)))
	rep.addExtra("query_ms.p99", "ms", percentile(q, 99), fmt.Sprintf("n=%d", len(q)))
	rep.addExtra("generator_late_ms.max", "ms", percentile(sorted(late), 100), "how late the query generator itself ran")
}

// runLive runs one measured window against the real lockdownd and
// restores the dataset layout afterwards. Every query, every epoch's seal,
// the final-epoch comparison and the clean shutdown count as operations in
// rep.
func runLive(e *env, rep *report) (*liveRun, error) {
	days := e.ds.days
	n := len(days)
	p := livePrefix
	k := n - p
	interval := liveInterval(e.cfg.seconds, k)
	live := filepath.Join(e.work, "live")
	if err := moveDays(e.ds.root, live, days[:p]); err != nil {
		return nil, err
	}
	defer restoreLive(e, live)

	d, err := startDaemon(e, live)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if err := d.waitEpoch(p-1, 60*time.Second); err != nil {
		return nil, fmt.Errorf("prefix of %d days: %w", p, err)
	}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	start := time.Now().Add(20 * time.Millisecond)
	landed := make(chan landing, 1)
	go func() {
		t, err := landDays(e.ds.root, live, days[p:], start, interval)
		landed <- landing{t, err}
	}()
	stop := make(chan struct{})
	go func() {
		// The final epoch ends the window; so does a dead daemon, whose
		// missing epochs then count as misses.
		select {
		case <-d.complete:
		case <-d.exited:
		}
		close(stop)
	}()
	dues := poissonSchedule(e.cfg.seed, queryRate, time.Duration(k+1)*interval+finalGrace)
	samples := openLoop(d.base, start, dues, queryConns, stop, queryMix(e.cfg.seed, &d.latest), queryTimeout)
	window := time.Since(start)
	l := <-landed
	if l.err != nil {
		return nil, l.err
	}
	lr := &liveRun{first: p, samples: samples, window: window}
	if cpu1, err := procCPU(pid); err == nil {
		lr.cpu = cpu1 - cpu0
	} else {
		return nil, err
	}
	if lr.rssMB, err = procPeakRSS(pid); err != nil {
		return nil, err
	}

	for _, s := range samples {
		rep.attempt(s.failure())
	}
	lr.lags = sealLags(p, l.times, d.published())
	for j, lag := range lr.lags {
		var err error
		if lag == inf {
			err = fmt.Errorf("epoch %d not published within %v of its day landing", p+j, finalGrace)
		}
		rep.attempt(err)
	}
	rep.attempt(d.checkFinal(e, n))
	rep.attempt(d.stop())
	return lr, nil
}

type landing struct {
	times []time.Time
	err   error
}

// landDays renames the staged day directories into the live root on a
// fixed schedule, day j at start + j*interval, then creates the COMPLETE
// sentinel one interval after the last day. It returns when each became
// visible, taken just before the rename or create so that no publication
// can precede it: len(days)+1 times, the sentinel last.
func landDays(stage, live string, days []string, start time.Time, interval time.Duration) ([]time.Time, error) {
	var times []time.Time
	for j := 0; j <= len(days); j++ {
		time.Sleep(time.Until(start.Add(time.Duration(j) * interval)))
		times = append(times, time.Now())
		if j < len(days) {
			if err := os.Rename(filepath.Join(stage, days[j]), filepath.Join(live, days[j])); err != nil {
				return times, err
			}
		} else if err := os.WriteFile(filepath.Join(live, "COMPLETE"), nil, 0o644); err != nil {
			return times, err
		}
	}
	return times, nil
}

// restoreLive moves every landed day back to the dataset root.
func restoreLive(e *env, live string) {
	for _, d := range e.ds.days {
		if _, err := os.Stat(filepath.Join(live, d)); err == nil {
			_ = os.Rename(filepath.Join(live, d), filepath.Join(e.ds.root, d)) // a failed move surfaces on the next use of the dataset
		}
	}
	_ = os.RemoveAll(live)
}

// queryMix is the daemon query schedule, fixed by the seed: the current
// epoch, a figure CSV, a historical report and the device counts, in
// rotation. Historical reports pick a published epoch at random.
func queryMix(seed int64, latest *atomic.Int64) func(i int) request {
	rng := rand.New(rand.NewSource(seed))
	figs := figset.FigureNames()
	return func(i int) request {
		switch i % 4 {
		case 0:
			return request{kind: "epoch", path: "/v1/epoch"}
		case 1:
			return request{kind: "figure", path: "/v1/figures/" + figs[rng.Intn(len(figs))]}
		case 2:
			return request{kind: "report", path: fmt.Sprintf("/v1/report?epoch=%d", 1+rng.Int63n(max(1, latest.Load()))), pinned: true}
		default:
			return request{kind: "devices", path: "/v1/devices"}
		}
	}
}

// daemon is a running lockdownd. Its status output is read as it is
// written: each "epoch n sealed" line (and the final "dataset complete"
// line) is logged right after lockdownd publishes that epoch, so the time
// the line arrives is the epoch's publication time.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	exited   chan struct{} // closed once Wait returned and the log is read
	waitErr  error
	latest   atomic.Int64  // highest epoch published so far
	complete chan struct{} // closed when the final epoch is published
	mu       sync.Mutex
	pubs     []observation // epoch publications in log order
}

var (
	servingRe  = regexp.MustCompile(`serving on http://(\S+)`)
	sealedRe   = regexp.MustCompile(`^lockdownd: epoch (\d+) sealed `)
	completeRe = regexp.MustCompile(`^lockdownd: dataset complete after (\d+) epochs`)
)

func startDaemon(e *env, root string) (*daemon, error) {
	cmd := exec.Command(e.tool("lockdownd"), "-root", root, "-addr", "127.0.0.1:0", "-shards", fmt.Sprint(liveShards),
		"-scale", benchScale, "-seed", e.seedArg(), "-key", benchKey, "-poll", tailPoll.String())
	stdoutPath := filepath.Join(e.work, "lockdownd.stdout")
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderrLog, err := os.Create(filepath.Join(e.work, "lockdownd.stderr"))
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		stderrLog.Close()
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = stdout, pw
	err = cmd.Start()
	pw.Close() // the daemon holds the write end now
	if err != nil {
		pr.Close()
		stderrLog.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), complete: make(chan struct{})}
	logRead := make(chan struct{})
	go func() {
		defer close(logRead)
		defer stderrLog.Close()
		defer pr.Close()
		d.readLog(pr, stderrLog)
	}()
	go func() {
		d.waitErr = cmd.Wait()
		<-logRead
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, _ := os.ReadFile(stdoutPath) // not yet written is the same as empty
		if m := servingRe.FindSubmatch(b); m != nil {
			d.base = "http://" + string(m[1])
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lockdownd exited before serving: %v: %s", d.waitErr, d.stderrTail(e))
		case <-time.After(10 * time.Millisecond):
		}
	}
	d.kill()
	return nil, errors.New("lockdownd announced no address within 30s")
}

// readLog copies the daemon's status output to w until it closes, and
// records the time each epoch publication line arrives.
func (d *daemon) readLog(r io.Reader, w io.Writer) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		at := time.Now()
		line := sc.Bytes()
		fmt.Fprintf(w, "%s\n", line)
		m := sealedRe.FindSubmatch(line)
		final := false
		if m == nil {
			m, final = completeRe.FindSubmatch(line), true
		}
		if m == nil {
			continue
		}
		epoch, _ := strconv.Atoi(string(m[1])) // \d+ always parses
		d.mu.Lock()
		d.pubs = append(d.pubs, observation{at: at, epoch: epoch})
		d.mu.Unlock()
		d.latest.Store(int64(epoch))
		if final {
			close(d.complete)
		}
	}
	_, _ = io.Copy(w, r) // a line beyond the scanner's limit: keep the rest for diagnostics
}

// published returns the epoch publications seen so far.
func (d *daemon) published() []observation {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]observation(nil), d.pubs...)
}

func (d *daemon) stderrTail(e *env) string {
	b, _ := os.ReadFile(filepath.Join(e.work, "lockdownd.stderr")) // diagnostics only
	return lastBytes(b, 600)
}

// waitEpoch polls /v1/epoch until the daemon has published epoch want.
func (d *daemon) waitEpoch(want int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var ep struct {
			Epoch int `json:"epoch"`
		}
		if b, status, _, err := get(d.base + "/v1/epoch"); err == nil && status == http.StatusOK && json.Unmarshal(b, &ep) == nil && ep.Epoch >= want {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("lockdownd exited: %v", d.waitErr)
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("epoch %d not published within %v", want, limit)
}

// checkFinal compares the final epoch's figures and report with the
// reference and checks its flow count.
func (d *daemon) checkFinal(e *env, final int) error {
	got := map[string][]byte{}
	for name := range e.ref.files {
		path := "/v1/figures/" + name
		if name == "report.txt" {
			path = "/v1/report"
		}
		b, status, epoch, err := get(d.base + path)
		if err != nil {
			return err
		}
		if status != http.StatusOK || epoch != final {
			return fmt.Errorf("%s: status %d from epoch %d, want 200 from final epoch %d", path, status, epoch, final)
		}
		got[name] = b
	}
	if err := compareOutputs(got, e.ref.files); err != nil {
		return fmt.Errorf("final epoch: %w", err)
	}
	b, _, _, err := get(d.base + "/v1/epoch")
	if err != nil {
		return err
	}
	var ep struct {
		Final bool  `json:"final"`
		Flows int64 `json:"flows"`
	}
	if err := json.Unmarshal(b, &ep); err != nil {
		return err
	}
	if !ep.Final || ep.Flows != e.ref.flows {
		return fmt.Errorf("final epoch reports final=%v flows=%d, want final with %d flows", ep.Final, ep.Flows, e.ref.flows)
	}
	return nil
}

// stop sends SIGTERM and requires a clean exit within ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("lockdownd shutdown: %w", d.waitErr)
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("lockdownd did not exit within 10s of SIGTERM")
	}
}

// kill ends the daemon if it still runs and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Kill() // it may exit on its own meanwhile
		<-d.exited
	}
}

// plainClient serves the harness's own control queries (epoch polling and
// the final comparison), outside the measured connections.
var plainClient = &http.Client{Timeout: queryTimeout, Transport: &http.Transport{DisableKeepAlives: true}}

// get fetches one URL.
func get(url string) (body []byte, status, epoch int, err error) {
	resp, err := plainClient.Get(url)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	epoch, _ = strconv.Atoi(resp.Header.Get("X-Lockdown-Epoch")) // absent on errors: 0
	return body, resp.StatusCode, epoch, err
}
