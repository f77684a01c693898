package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/campus"
	"repro/internal/dnssim"
	"repro/internal/logsink"
	"repro/internal/trace"
	"repro/internal/zeeklog"
)

// perLayer is every per-layer metric a traced run reports, in print order,
// with the direction a change to its layer should move it. A metric that a
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"trace.generate_ms", "ms", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.population_ms", "ms", "lower"},
	{"logsink.replay_self_ms", "ms", "lower"},
	{"logsink.bytes_read", "bytes", "lower"},
	{"logsink.records", "count", "lower"},
	{"logsink.write_ms", "ms", "lower"},
	{"logsink.tail_idle_ms", "ms", "higher"},
	{"zeeklog.conn_decode_ms", "ms", "lower"},
	{"zeeklog.conn_records", "count", "lower"},
	{"dnssim.log_decode_ms", "ms", "lower"},
	{"faultline.offered", "count", "lower"},
	{"faultline.accepted", "count", "higher"},
	{"faultline.dropped", "count", "lower"},
	{"core.flow_ms", "ms", "lower"},
	{"core.flow_calls", "count", "lower"},
	{"core.dns_ms", "ms", "lower"},
	{"core.lease_ms", "ms", "lower"},
	{"core.http_ms", "ms", "lower"},
	{"core.finalize_ms", "ms", "lower"},
	{"core.stage.tap_filter.events", "count", "lower"},
	{"core.stage.tap_filter.drops", "count", "lower"},
	{"core.stage.dhcp_normalize.events", "count", "lower"},
	{"core.stage.dhcp_normalize.drops", "count", "lower"},
	{"core.stage.dns_label.events", "count", "lower"},
	{"core.stage.dns_label.drops", "count", "lower"},
	{"core.stage.appsig_match.events", "count", "lower"},
	{"core.stage.appsig_match.drops", "count", "lower"},
	{"core.stage.session_stitch.events", "count", "lower"},
	{"core.stage.session_stitch.drops", "count", "lower"},
	{"core.stage.aggregate.events", "count", "lower"},
	{"core.stage.aggregate.drops", "count", "lower"},
	{"core.dns_label.hit_ratio", "ratio", "higher"},
	{"core.appsig_match.hit_ratio", "ratio", "higher"},
	{"core.seal_ms.p50", "ms", "lower"},
	{"core.seal_ms.sum", "ms", "lower"},
	{"core.merge_ms.p50", "ms", "lower"},
	{"core.merge_ms.sum", "ms", "lower"},
	{"core.merge_parts", "count", "lower"},
	{"core.snapshot_ms.p50", "ms", "lower"},
	{"core.checkpoint_encode_ms", "ms", "lower"},
	{"core.checkpoint_restore_ms", "ms", "lower"},
	{"core.checkpoint_bytes", "bytes", "lower"},
	{"core.dataset_encode_ms", "ms", "lower"},
	{"core.dataset_bytes", "bytes", "lower"},
	{"core.sharded.route_ms", "ms", "lower"},
	{"core.sharded.wait_ms", "ms", "lower"},
	{"core.sharded.queue_fill.mean", "ratio", "lower"},
	{"core.sharded.skew", "ratio", "lower"},
	{"figset.compute_ms", "ms", "lower"},
	{"figset.fig3_ms", "ms", "lower"},
	{"figset.fig2_ms", "ms", "lower"},
	{"figset.convergence_ms", "ms", "lower"},
	{"figset.render_ms", "ms", "lower"},
	{"figset.render_bytes", "bytes", "lower"},
	{"figset.seal_ms.p50", "ms", "lower"},
	{"figset.seal_ms.sum", "ms", "lower"},
	{"stagecache.digest_ms", "ms", "lower"},
	{"stagecache.bytes_hashed", "bytes", "lower"},
	{"stagecache.get_ms", "ms", "lower"},
	{"stagecache.put_ms", "ms", "lower"},
	{"stagecache.hits", "count", "higher"},
	{"stagecache.misses", "count", "lower"},
	{"stagecache.verify_failures", "count", "lower"},
	{"stagecache.hit_ratio", "ratio", "higher"},
	{"lockdownd.epoch.ms.p50", "ms", "lower"},
	{"lockdownd.figure.ms.p50", "ms", "lower"},
	{"lockdownd.report.ms.p50", "ms", "lower"},
	{"lockdownd.devices.ms.p50", "ms", "lower"},
	{"lockdownd.response_bytes", "bytes", "lower"},
	{"lockdownd.non200", "count", "lower"},
	{"lockdownd.seal_lag_ms.p50", "ms", "lower"},
	{"lockdownd.seal_lag_ms.p90", "ms", "lower"},
	{"lockdownd.query_ms.p99", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_bytes", "bytes", "lower"},
	{"runtime.heap_peak_mb", "MB", "lower"},
	{"ledger.traced_wall_ms", "ms", "lower"},
	{"ledger.untraced_wall_ms", "ms", "lower"},
	{"ledger.unattributed_ms", "ms", "lower"},
	{"ledger.trace_overhead_ms", "ms", "lower"},
}

// ledger collects per-layer values by name.
type ledger map[string]float64

func (l ledger) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			l[name] = v
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

func (l ledger) into(rep *report) {
	for _, m := range perLayer {
		rep.add(m.name, m.unit, l[m.name], "")
	}
}

// spanSet answers questions about one run's spans.
type spanSet []span

func (s spanSet) named(name string) []span {
	var out []span
	for _, sp := range s {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func (s spanSet) durs(name string) []float64 {
	var out []float64
	for _, sp := range s.named(name) {
		out = append(out, sp.Dur)
	}
	return out
}

func (s spanSet) total(name string) float64 { return sum(s.durs(name)) }

func (s spanSet) calls(name string) int64 {
	var n int64
	for _, sp := range s.named(name) {
		n += sp.Calls
	}
	return n
}

// selfs is each named span's duration minus its children's: the time
// spent in the layer itself.
func (s spanSet) selfs(name string) []float64 {
	child := map[int]float64{}
	for _, sp := range s {
		child[sp.Parent] += sp.Dur
	}
	var out []float64
	for _, sp := range s.named(name) {
		out = append(out, sp.Dur-child[sp.ID])
	}
	return out
}

// unattributed is the part of wall no layer span covers: time outside
// every root span, plus the self time of structural group spans.
func (s spanSet) unattributed(wall float64) float64 {
	covered, glue := 0.0, 0.0
	child := map[int]float64{}
	for _, sp := range s {
		child[sp.Parent] += sp.Dur
	}
	for _, sp := range s {
		if sp.Parent == 0 {
			covered += sp.Dur
		}
		if sp.Group {
			glue += sp.Dur - child[sp.ID]
		}
	}
	return wall - covered + glue
}

func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// rtStats samples the Go runtime of the traced process over one pass.
type rtStats struct {
	stop, done chan struct{}
	m0         runtime.MemStats
	peak       uint64
}

func startRuntime() *rtStats {
	r := &rtStats{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&r.m0)
	go func() {
		defer close(r.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindUint64 {
				r.peak = max(r.peak, s[0].Value.Uint64())
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

func (r *rtStats) end(l ledger) {
	close(r.stop)
	<-r.done
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	l.set("runtime.gc_cycles", float64(m1.NumGC-r.m0.NumGC))
	l.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-r.m0.PauseTotalNs)/1e6)
	l.set("runtime.alloc_bytes", float64(m1.TotalAlloc-r.m0.TotalAlloc))
	l.set("runtime.heap_peak_mb", float64(r.peak)/(1<<20))
}

// passes runs the workload's mirror pass in pairs, untraced then traced,
// until the measured window is used (at least one pair), and books the
// ledger's wall, overhead and runtime figures. The per-layer figures come
// from the last traced pass. pass writes the outputs to check against the
// reference into its directory.
func passes(e *env, l ledger, rep *report, pass func(*mirror, string) error) (*mirror, error) {
	var walls, cpus [2][]float64
	var traced *mirror
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < e.cfg.seconds; pair++ {
		for i, on := range []bool{false, true} {
			run := fmt.Sprintf("%s/seed%d/untraced/%d", e.cfg.workload, e.cfg.seed, pair)
			if on {
				run = fmt.Sprintf("%s/seed%d/traced/%d", e.cfg.workload, e.cfg.seed, pair)
			}
			d, err := newMirror(e, newTracer(run, on))
			if err != nil {
				return nil, err
			}
			out := filepath.Join(e.work, "mirror-out")
			if err := os.RemoveAll(out); err != nil {
				return nil, err
			}
			var rt *rtStats
			if on {
				rt = startRuntime()
			} else {
				runtime.GC()
			}
			t0, c0 := time.Now(), processCPU()
			err = pass(d, out)
			walls[i] = append(walls[i], ms(time.Since(t0)))
			cpu := processCPU() - c0
			if d.tailCPU > 0 {
				// Every traced call of the daemon path runs on the tail's
				// thread; the process also counts shard workers and GC,
				// whose share varies more than tracing costs.
				cpu = d.tailCPU
			}
			cpus[i] = append(cpus[i], ms(cpu))
			if on {
				rt.end(l)
				traced = d
			}
			if err != nil {
				return nil, fmt.Errorf("%s pass: %w", run, err)
			}
			rep.attempt(wrapErr(run+" outputs", e.ref.checkDir(out)))
		}
	}
	l.set("ledger.untraced_wall_ms", median(walls[0]))
	l.set("ledger.traced_wall_ms", median(walls[1]))
	// The tracer's cost is CPU: on daemon_live the landing schedule, not
	// the work, sets a pass's wall time.
	l.set("ledger.trace_overhead_ms", median(cpus[1])-median(cpus[0]))
	l.set("ledger.unattributed_ms", spanSet(traced.t.spans).unattributed(walls[1][len(walls[1])-1]))
	return traced, nil
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// bookMirror turns the traced pass's spans and counters into the ledger.
func bookMirror(e *env, l ledger, d *mirror, replayedDays []int) {
	s := spanSet(d.t.spans)
	var replaySelf float64
	for _, name := range []string{"logsink.replay", "logsink.replay_day", "logsink.tail"} {
		replaySelf += sum(s.selfs(name))
	}
	l.set("logsink.replay_self_ms", replaySelf)
	var bytesRead float64
	for _, i := range replayedDays {
		bytesRead += float64(e.ds.bytes[i])
	}
	l.set("logsink.bytes_read", bytesRead)
	l.set("logsink.tail_idle_ms", s.total("logsink.tail_idle"))
	var offered, accepted, dropped int64
	for _, g := range d.guards {
		offered += g.Offered()
		accepted += g.Accepted()
		dropped += g.DropTotal()
	}
	l.set("logsink.records", float64(offered))
	l.set("faultline.offered", float64(offered))
	l.set("faultline.accepted", float64(accepted))
	l.set("faultline.dropped", float64(dropped))

	l.set("trace.population_ms", s.total("trace.population"))
	l.set("core.flow_ms", s.total("core.flow"))
	l.set("core.flow_calls", float64(s.calls("core.flow")+s.calls("core.sharded.flow")))
	l.set("core.dns_ms", s.total("core.dns"))
	l.set("core.lease_ms", s.total("core.lease"))
	l.set("core.http_ms", s.total("core.http"))
	l.set("core.finalize_ms", s.total("core.finalize"))
	if d.metrics != nil {
		hits := map[string][2]int64{}
		for _, st := range d.metrics.Snapshot().Stages {
			if st.Stage == "ingest" {
				continue
			}
			l.set("core.stage."+st.Stage+".events", float64(st.Events))
			l.set("core.stage."+st.Stage+".drops", float64(st.Drops))
			hits[st.Stage] = [2]int64{st.Events, st.Drops}
		}
		// A labelled or matched flow counts as an event of its stage, an
		// unlabelled or unmatched one as a drop.
		for _, st := range []string{"dns_label", "appsig_match"} {
			if h := hits[st]; h[0]+h[1] > 0 {
				l.set("core."+st+".hit_ratio", float64(h[0])/float64(h[0]+h[1]))
			}
		}
	}

	seals := s.durs("core.seal")
	l.set("core.seal_ms.p50", p50(seals))
	l.set("core.seal_ms.sum", sum(seals))
	// Outside figset.Incremental the merge is its own call; inside Seal it
	// is what remains of the seal span after its children.
	merges := append(s.durs("core.merge"), s.selfs("figset.seal")...)
	l.set("core.merge_ms.p50", p50(merges))
	l.set("core.merge_ms.sum", sum(merges))
	l.set("core.merge_parts", float64(d.mergeParts))
	l.set("core.snapshot_ms.p50", p50(s.durs("core.snapshot")))
	l.set("core.checkpoint_encode_ms", s.total("core.checkpoint_encode"))
	l.set("core.checkpoint_restore_ms", s.total("core.checkpoint_restore"))
	l.set("core.checkpoint_bytes", float64(d.ckptBytes))
	l.set("core.dataset_encode_ms", s.total("core.dataset_encode"))
	l.set("core.dataset_bytes", float64(d.dsBytes))

	var route float64
	for _, k := range []string{"flow", "dns", "http", "lease", "batch"} {
		route += s.total("core.sharded." + k)
	}
	if route > 0 {
		// Finalize on a sharded pipeline waits for every shard to drain.
		l.set("core.sharded.route_ms", route)
		l.set("core.sharded.wait_ms", s.total("core.sharded.flush")+s.total("core.sharded.quiesce")+s.total("core.finalize"))
		var fill []float64
		for _, ts := range d.sinks {
			fill = append(fill, ts.fill...)
		}
		if len(fill) > 0 {
			l.set("core.sharded.queue_fill.mean", sum(fill)/float64(len(fill)))
		}
		l.set("core.sharded.skew", d.skew)
	}

	l.set("figset.compute_ms", s.total("figset.compute"))
	l.set("figset.fig3_ms", d.figMS["fig3"])
	l.set("figset.fig2_ms", d.figMS["fig2"])
	l.set("figset.convergence_ms", d.figMS["convergence"])
	l.set("figset.render_ms", s.total("figset.render"))
	l.set("figset.render_bytes", float64(d.renderBytes))
	figSeals := s.durs("figset.seal")
	l.set("figset.seal_ms.p50", p50(figSeals))
	l.set("figset.seal_ms.sum", sum(figSeals))

	l.set("stagecache.digest_ms", s.total("stagecache.digest"))
	l.set("stagecache.bytes_hashed", float64(d.hashed))
	l.set("stagecache.get_ms", sum(s.selfs("stagecache.get")))
	l.set("stagecache.put_ms", s.total("stagecache.put"))
	l.set("stagecache.hits", float64(d.cache.Hits))
	l.set("stagecache.misses", float64(d.cache.Misses))
	l.set("stagecache.verify_failures", float64(d.cache.VerifyFailures))
	if n := d.cache.Hits + d.cache.Misses; n > 0 {
		l.set("stagecache.hit_ratio", float64(d.cache.Hits)/float64(n))
	}
}

// checkOffered requires the traced pass's guards to have been offered
// exactly the records the harness counted in the replayed days' files.
func checkOffered(e *env, l ledger, days []int) error {
	var want int64
	for _, i := range days {
		want += e.ds.records[i]
	}
	if got := int64(l["faultline.offered"]); got != want || int64(l["faultline.accepted"]) != want {
		return fmt.Errorf("traced pass offered %d and accepted %d records, the replayed files hold %d",
			got, int64(l["faultline.accepted"]), want)
	}
	return nil
}

// generatePass regenerates the dataset in-process as tracegen does, with
// the writer's calls timed, and requires it byte-identical to tracegen's.
func generatePass(e *env, l ledger, rep *report) (*tracer, error) {
	t := newTracer(fmt.Sprintf("%s/seed%d/generate", e.cfg.workload, e.cfg.seed), true)
	d, err := newMirror(e, t)
	if err != nil {
		return nil, err
	}
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	var gen *trace.Generator
	if err := t.do("trace.new", func() (err error) {
		gcfg := trace.DefaultConfig()
		gcfg.Scale, gcfg.Seed = d.scale, d.seed
		gen, err = trace.New(gcfg, reg)
		return err
	}); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, "generated")
	w, err := logsink.NewRotatingWriter(dir, false)
	if err != nil {
		return nil, err
	}
	ts, sink := timed(w, "logsink.write.")
	from, to, err := studyDays()
	if err != nil {
		return nil, err
	}
	if err := t.do("trace.generate", func() error {
		for day := from; day < to; day++ {
			if err := gen.RunDays(sink, day, day+1); err != nil {
				return err
			}
		}
		t.fold("logsink.write", ts.all())
		return nil
	}); err != nil {
		w.Close()
		return nil, err
	}
	if err := t.do("logsink.close", w.Close); err != nil {
		return nil, err
	}
	s := spanSet(t.spans)
	l.set("trace.generate_ms", sum(s.selfs("trace.generate")))
	l.set("trace.events", float64(ts.all().calls))
	l.set("logsink.write_ms", s.total("logsink.write")+s.total("logsink.close"))
	rep.attempt(wrapErr("in-process generation vs tracegen", diffTrees(e.ds.root, dir)))
	return t, os.RemoveAll(dir)
}

func studyDays() (from, to campus.Day, err error) {
	var f, t int
	if _, err := fmt.Sscanf(benchDays, "%d:%d", &f, &t); err != nil {
		return 0, 0, err
	}
	return campus.Day(f), campus.Day(t), nil
}

// decodePass decodes the conn and dns logs of the given days on their own,
// outside the pipeline: the cost of decode alone.
func decodePass(e *env, l ledger, days []int) (*tracer, error) {
	t := newTracer(fmt.Sprintf("%s/seed%d/decode", e.cfg.workload, e.cfg.seed), true)
	var records int64
	for _, i := range days {
		dir := filepath.Join(e.ds.root, e.ds.days[i])
		if err := t.do("zeeklog.conn_decode", func() error {
			return decodeLog(filepath.Join(dir, "conn.log"), func(r io.Reader) (func() error, error) {
				cr, err := zeeklog.NewConnReader(r)
				if err != nil {
					return nil, err
				}
				return func() error { _, err := cr.Next(); records++; return err }, nil
			})
		}); err != nil {
			return nil, err
		}
		if err := t.do("dnssim.log_decode", func() error {
			return decodeLog(filepath.Join(dir, "dns.log"), func(r io.Reader) (func() error, error) {
				lr, err := dnssim.NewLogReader(r)
				if err != nil {
					return nil, err
				}
				return func() error { _, err := lr.Next(); return err }, nil
			})
		}); err != nil {
			return nil, err
		}
	}
	s := spanSet(t.spans)
	l.set("zeeklog.conn_decode_ms", s.total("zeeklog.conn_decode"))
	l.set("zeeklog.conn_records", float64(records-int64(len(days)))) // each log's final Next is its EOF
	l.set("dnssim.log_decode_ms", s.total("dnssim.log_decode"))
	return t, nil
}

// decodeLog opens path and calls next until io.EOF.
func decodeLog(path string, open func(io.Reader) (func() error, error)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	next, err := open(f)
	if err != nil {
		return err
	}
	for {
		if err := next(); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
}

func allDays(e *env) []int {
	var idx []int
	for i := range e.ds.days {
		idx = append(idx, i)
	}
	return idx
}

// finishTraced books the shared parts of every traced run, writes the
// spans out and returns the per-layer report.
func finishTraced(e *env, l ledger, rep *report, d *mirror, days []int, runs ...*tracer) (*report, error) {
	bookMirror(e, l, d, days)
	rep.attempt(checkOffered(e, l, days))
	path := filepath.Join(e.cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", e.cfg.workload, e.cfg.seed))
	if err := writeSpans(path, append(runs, d.t)...); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	printLayerTree(spanSet(d.t.spans))
	l.into(rep)
	return rep, nil
}

// printLayerTree prints total and self time per span name of the traced
// pass, largest self time first: the ledger at a glance.
func printLayerTree(s spanSet) {
	type row struct {
		name        string
		total, self float64
		calls       int64
	}
	rows := map[string]*row{}
	for _, sp := range s {
		r := rows[sp.Name]
		if r == nil {
			r = &row{name: sp.Name}
			rows[sp.Name] = r
		}
		r.total += sp.Dur
		r.calls += sp.Calls
	}
	for name, r := range rows {
		r.self = sum(s.selfs(name))
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	for _, r := range list {
		fmt.Printf("layer %-28s self %10.2f ms  total %10.2f ms  calls %d\n", r.name, r.self, r.total, r.calls)
	}
}

// tracedReplay is the traced run of replay_cold and replay_sharded.
func tracedReplay(e *env, shards int) (*report, error) {
	if err := prepare(e, 0); err != nil {
		return nil, err
	}
	l, rep := ledger{}, &report{}
	gen, err := generatePass(e, l, rep)
	if err != nil {
		return nil, err
	}
	days := allDays(e)
	dec, err := decodePass(e, l, days)
	if err != nil {
		return nil, err
	}
	d, err := passes(e, l, rep, func(d *mirror, out string) error { return d.replay(e.ds.root, out, shards) })
	if err != nil {
		return nil, err
	}
	return finishTraced(e, l, rep, d, days, gen, dec)
}

// tracedAppends is the traced run of append_days: the mirror seeds its
// own cache over the dataset minus its final day, then each pass restores
// that seed, lands the final day, appends it and re-runs with nothing new.
func tracedAppends(e *env) (*report, error) {
	if err := prepare(e, 0); err != nil {
		return nil, err
	}
	l, rep := ledger{}, &report{}
	gen, err := generatePass(e, l, rep)
	if err != nil {
		return nil, err
	}
	n := len(e.ds.days)
	last := e.ds.days[n-1:]
	days := []int{n - 1}
	dec, err := decodePass(e, l, days)
	if err != nil {
		return nil, err
	}
	if err := moveDays(e.ds.root, heldDir(e), last); err != nil {
		return nil, err
	}
	seeder, err := newMirror(e, newTracer("seed", false))
	if err != nil {
		return nil, err
	}
	if _, err := seeder.cachedRun(e.ds.root, seedCacheDir(e), filepath.Join(e.work, "seed-out")); err != nil {
		return nil, fmt.Errorf("seeding the mirror's cache: %w", err)
	}
	cache := filepath.Join(e.work, "cache")
	d, err := passes(e, l, rep, func(d *mirror, out string) error {
		if err := os.RemoveAll(cache); err != nil {
			return err
		}
		if err := copyTree(seedCacheDir(e), cache); err != nil {
			return err
		}
		if err := moveDays(heldDir(e), e.ds.root, last); err != nil {
			return err
		}
		for _, want := range []statsday{
			{days: n, replayed: 1, hits: 1, misses: 1},
			{statsHit: true, figuresHit: true},
		} {
			end := d.t.group("append")
			if want.statsHit {
				end = d.t.group("rerun")
			}
			sd, err := d.cachedRun(e.ds.root, cache, out)
			end()
			if err != nil {
				return err
			}
			var bad error
			if sd != want {
				bad = fmt.Errorf("cached run: statsday %+v, want %+v", sd, want)
			}
			rep.attempt(bad)
		}
		return moveDays(e.ds.root, heldDir(e), last)
	})
	if err != nil {
		return nil, err
	}
	return finishTraced(e, l, rep, d, days, gen, dec)
}

// tracedDaemon is the traced run of daemon_live: the mirror tails the live
// root while the days land on the workload's schedule, then the real
// lockdownd runs the measured window for the per-endpoint figures.
func tracedDaemon(e *env) (*report, error) {
	if err := prepare(e, 0); err != nil {
		return nil, err
	}
	l, rep := ledger{}, &report{}
	gen, err := generatePass(e, l, rep)
	if err != nil {
		return nil, err
	}
	days := allDays(e)
	dec, err := decodePass(e, l, days)
	if err != nil {
		return nil, err
	}
	p := livePrefix
	interval := liveInterval(e.cfg.seconds, len(e.ds.days)-p)
	live := filepath.Join(e.work, "live")
	d, err := passes(e, l, rep, func(d *mirror, out string) error {
		if err := moveDays(e.ds.root, live, e.ds.days[:p]); err != nil {
			return err
		}
		defer restoreLive(e, live)
		prefixDone := make(chan struct{})
		abort := make(chan struct{})
		landed := make(chan landing, 1)
		go func() {
			select {
			case <-prefixDone:
				t, err := landDays(e.ds.root, live, e.ds.days[p:], time.Now().Add(20*time.Millisecond), interval)
				landed <- landing{t, err}
			case <-abort:
				landed <- landing{}
			}
		}()
		art, err := d.live(live, liveShards, p, func() { close(prefixDone) })
		close(abort)
		if l := <-landed; err == nil {
			err = l.err
		}
		if err != nil {
			return err
		}
		return d.write(out, art)
	})
	if err != nil {
		return nil, err
	}

	lr, err := runLive(e, rep)
	if err != nil {
		return nil, err
	}
	byKind := map[string][]float64{}
	var respBytes, non200 float64
	var lat []float64
	for _, s := range lr.samples {
		lat = append(lat, s.latencyMS())
		if !s.ok() {
			non200++
			continue
		}
		byKind[s.kind] = append(byKind[s.kind], s.latencyMS())
		respBytes += float64(s.bytes)
	}
	for _, k := range []string{"epoch", "figure", "report", "devices"} {
		l.set("lockdownd."+k+".ms.p50", p50(byKind[k]))
	}
	l.set("lockdownd.response_bytes", respBytes)
	l.set("lockdownd.non200", non200)
	l.set("lockdownd.seal_lag_ms.p50", median(lr.lags))
	l.set("lockdownd.seal_lag_ms.p90", percentile(sorted(lr.lags), 90))
	l.set("lockdownd.query_ms.p99", percentile(sorted(lat), 99))
	return finishTraced(e, l, rep, d, days, gen, dec)
}
