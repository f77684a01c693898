// Command perfbench is the repository benchmark. From a workload seed it
// generates a rotated campus dataset with tracegen, builds a cache-free
// single-shard reference with lockdown, then drives the real lockdown and
// lockdownd binaries through one workload and checks every output byte
// against that reference. It prints the end-to-end metrics by name and
// unit, then one JSON result line.
//
// With -trace 1 it instead drives the same layers in-process through
// their public functions, records a span around every call, and prints
// the per-layer ledger (see traced.go). End-to-end metrics always come
// from the untraced binaries.
//
// Usage (from the repository root, through run.sh, which builds the
// binaries first):
//
//	bash perfbench/run.sh --workload replay_cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The workload parameters every run shares. The dataset is the full
// 121-day study window at 1% of paper scale, so that a run's set-up and
// measured phase together stay near half a minute on two cores.
const (
	benchScale = "0.01"
	benchDays  = "0:121"
	// benchKey pins the pseudonymization key, so that two runs over the
	// same dataset are byte-comparable.
	benchKey = "00112233445566778899aabbccddeeff"
	// setupReps is how often set-up builds the inputs; setup_s is the
	// median, and every repeat must reproduce the first byte for byte.
	setupReps = 3
	// procTimeout bounds any single program run.
	procTimeout = 120 * time.Second
)

// endToEnd is the metric set of every untraced run's result line: each
// workload reports each one, with the meaning its doc comment in
// README.md gives for that workload.
var endToEnd = []struct{ name, unit, better string }{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"cpu_ms_per_krec", "ms/krec", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding lockdown, lockdownd and tracegen
	work     string // work directory, emptied before and after the run
	spans    string // directory receiving the span file of a traced run
}

// workload is one benchmark input set: e2e measures the binaries, traced
// drives the same layers in-process and returns the per-layer ledger.
type workload struct {
	why    string
	e2e    func(*env) (*report, error)
	traced func(*env) (*report, error)
}

var workloads = map[string]workload{
	"replay_cold": {
		why:    "cache-free single-shard replay of the whole dataset: decode and Pipeline.Flow dominate",
		e2e:    func(e *env) (*report, error) { return runReplays(e, 1) },
		traced: func(e *env) (*report, error) { return tracedReplay(e, 1) },
	},
	"replay_sharded": {
		why:    "the same replay with -shards 2: routing, rings and shard merging sit between the layers",
		e2e:    func(e *env) (*report, error) { return runReplays(e, 2) },
		traced: func(e *env) (*report, error) { return tracedReplay(e, 2) },
	},
	"append_days": {
		why:    "the last day appended onto a seeded stage cache, then a re-run that hits both cached stages",
		e2e:    runAppends,
		traced: tracedAppends,
	},
	"daemon_live": {
		why:    "lockdownd -shards 2 seals days landing on a fixed schedule while open-loop queries run",
		e2e:    runDaemon,
		traced: tracedDaemon,
	},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: tracegen and lockdown both receive it")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = in-process traced run printing the per-layer ledger")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the lockdown, lockdownd and tracegen binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "work directory for datasets and outputs")
	flag.StringVar(&cfg.spans, "spans", ".bench_build/spans", "directory receiving the span file of a traced run")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1

	w, ok := workloads[cfg.workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(cfg, w)
	if err == nil {
		err = rep.print(os.Stdout, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run prepares a fresh work directory, runs the workload and removes the
// work directory again.
func run(cfg config, w workload) (*report, error) {
	for _, tool := range []string{"lockdown", "lockdownd", "tracegen"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, tool)); err != nil {
			return nil, fmt.Errorf("missing %s binary: %w", tool, err)
		}
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{cfg: cfg, work: work}
	fp := fingerprint(cfg)
	fmt.Printf("host: %s\n", fp)
	fmt.Printf("workload: %s (%s)\n", cfg.workload, w.why)
	total0, steal0 := hostCPU()
	run := w.e2e
	if cfg.trace {
		run = w.traced
	}
	rep, err := run(e)
	if total1, steal1 := hostCPU(); err == nil && total1 > total0 {
		// CPU the hypervisor gave to other guests while this run wanted
		// it: every timing above grows with it.
		rep.addExtra("host_steal_ratio", "ratio", float64(steal1-steal0)/float64(total1-total0),
			"share of host CPU time stolen during the run")
	}
	return rep, err
}

// env is one run's state: configuration, work directory, the dataset and
// the reference outputs every measured run is checked against.
type env struct {
	cfg   config
	work  string
	ds    *dataset
	ref   *reference
	setup []float64 // seconds per set-up repeat
}

func (e *env) tool(name string) string { return filepath.Join(e.cfg.bin, name) }

func (e *env) seedArg() string { return fmt.Sprint(e.cfg.seed) }

// metric is one named measurement. Metrics marked extra are printed for
// people but are not part of the JSON result line.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
	extra bool
}

// report is a run's outcome: operation counts, the failures seen and the
// metrics measured.
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   []metric
}

func (r *report) attempt(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *report) addExtra(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note, extra: true})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, then the JSON result line last. The
// line must carry exactly the benchmark's metric set: endToEnd untraced,
// perLayer traced.
func (r *report) print(w *os.File, traced bool) error {
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", firstLine(f))
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", f)
	}
	out := map[string]jsonMetric{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-36s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
		if !m.extra {
			out[m.name] = jsonMetric{Value: finite(m.value), Unit: m.unit}
		}
	}
	fmt.Fprintf(w, "metric %-36s %14.4f %-6s %d of %d operations\n", "failed_ratio", ratio(r.failed, r.attempted), "ratio", r.failed, r.attempted)
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(out) != len(want) {
		return fmt.Errorf("result carries %d metrics, the benchmark defines %d", len(out), len(want))
	}
	for _, m := range want {
		if got, ok := out[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("result lacks metric %s in %s", m.name, m.unit)
		}
	}
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// finite maps a miss (+Inf, a percentile that landed on a failed or
// timed-out operation) to the largest float, which JSON can carry.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v):
		return math.MaxFloat64
	}
	return v
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
