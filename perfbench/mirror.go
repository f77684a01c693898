package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/anonymize"
	"repro/internal/appsig"
	"repro/internal/core"
	"repro/internal/devclass"
	"repro/internal/faultline"
	"repro/internal/figset"
	"repro/internal/logsink"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/stagecache"
	"repro/internal/trace"
	"repro/internal/universe"
)

// mirror calls the layers' public functions in the order cmd/lockdown
// and cmd/lockdownd call them, with a span around each call. With its
// tracer off it makes the same calls untimed: the baseline the tracing
// overhead is measured against.
type mirror struct {
	t       *tracer
	key     []byte
	scale   float64
	seed    int64
	metrics *obs.Metrics // the pipelines' counters; nil when untraced, as in the CLI

	// Accounting gathered along the way for the ledger.
	guards      []*faultline.Guard
	sinks       []*timedSink
	figMS       map[string]float64 // per-figure compute time, summed
	mergeParts  int64
	ckptBytes   int
	dsBytes     int
	renderBytes int
	hashed      int64
	cache       stagecache.Counters
	skew        float64
	tailCPU     time.Duration // CPU of the tail's thread, on the daemon path
}

func newMirror(e *env, t *tracer) (*mirror, error) {
	key, err := hex.DecodeString(benchKey)
	if err != nil {
		return nil, err
	}
	scale, err := strconv.ParseFloat(benchScale, 64)
	if err != nil {
		return nil, err
	}
	d := &mirror{t: t, key: key, scale: scale, seed: e.cfg.seed, figMS: map[string]float64{}}
	if t.on {
		d.metrics = obs.NewMetrics()
	}
	return d, nil
}

// pipeline is the slice of core.Pipeline and core.ShardedPipeline a
// replay needs.
type pipeline interface {
	trace.Sink
	DeviceID(m packet.MAC) anonymize.DeviceID
	Finalize() *core.Dataset
}

func (d *mirror) registry() (reg *universe.Registry, err error) {
	err = d.t.do("universe.new", func() error {
		reg, err = universe.New()
		return err
	})
	return reg, err
}

func (d *mirror) newPipeline(reg *universe.Registry, shards int) (p pipeline, err error) {
	err = d.t.do("core.new", func() error {
		opts := core.Options{Key: d.key, Obs: d.metrics}
		if shards == 1 {
			p, err = core.NewPipeline(reg, opts)
		} else {
			p, err = core.NewShardedPipeline(reg, opts, shards)
		}
		return err
	})
	return p, err
}

// guard is the strict fault guard every replay carries: it changes nothing
// about the replay but keeps the offered/accepted accounting.
func (d *mirror) guard() logsink.ReplayOptions {
	g := faultline.NewGuard(faultline.PolicyStrict, 0.001, nil, d.metrics)
	d.guards = append(d.guards, g)
	return logsink.ReplayOptions{Guard: g}
}

// feed is the sink a producer feeds pipe through: pipe itself when
// untraced, otherwise a timing wrapper that keeps its batch fast path.
func (d *mirror) feed(pipe trace.Sink) (*timedSink, trace.Sink) {
	if !d.t.on {
		return nil, pipe
	}
	// Calls into the sharded pipeline only route events to its shards.
	if sp, ok := pipe.(*core.ShardedPipeline); ok {
		ts, sink := timed(pipe, "core.sharded.")
		ts.depths, ts.capacity = sp.QueueDepths, sp.QueueCapacity()
		d.sinks = append(d.sinks, ts)
		return ts, sink
	}
	ts, sink := timed(pipe, "core.")
	d.sinks = append(d.sinks, ts)
	return ts, sink
}

func (d *mirror) foldCore(ts *timedSink) {
	if ts != nil {
		ts.foldCore(d.t)
	}
}

// population is the truth rebuild: the generator's device population for
// the dataset's scale and seed, mapped to the pipeline's pseudonyms.
func (d *mirror) population(reg *universe.Registry, pipe pipeline) (truth map[anonymize.DeviceID]devclass.Type, err error) {
	err = d.t.do("trace.population", func() error {
		gcfg := trace.DefaultConfig()
		gcfg.Scale, gcfg.Seed = d.scale, d.seed
		gen, err := trace.New(gcfg, reg)
		if err != nil {
			return err
		}
		truth = map[anonymize.DeviceID]devclass.Type{}
		for _, dev := range gen.Devices() {
			truth[pipe.DeviceID(dev.MAC)] = dev.Kind.TruthType()
		}
		return nil
	})
	return truth, err
}

func (d *mirror) finalize(pipe pipeline) (ds *core.Dataset) {
	_ = d.t.do("core.finalize", func() error {
		ds = pipe.Finalize()
		return nil
	})
	if d.metrics != nil {
		d.skew = d.metrics.Snapshot().Imbalance
	}
	return ds
}

func (d *mirror) addFigMS(figMS map[string]float64) {
	for k, v := range figMS {
		d.figMS[k] += v
	}
}

// figures computes and renders every figure CSV and the report.
func (d *mirror) figures(ds *core.Dataset, truth map[anonymize.DeviceID]devclass.Type) (map[string][]byte, error) {
	var res *figset.Results
	_ = d.t.do("figset.compute", func() error {
		var figMS map[string]float64
		res, figMS, _ = figset.Compute(ds, figset.Params{Scale: d.scale, Seed: d.seed, Truth: truth})
		d.addFigMS(figMS)
		return nil
	})
	var art map[string][]byte
	err := d.t.do("figset.render", func() (err error) {
		art, err = render(res)
		return err
	})
	d.renderBytes = 0
	for _, b := range art {
		d.renderBytes += len(b)
	}
	return art, err
}

// render is the CLI's single render path: every figure CSV and the report.
func render(res *figset.Results) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, name := range figset.FigureNames() {
		var b bytes.Buffer
		if err := res.WriteFigure(&b, name); err != nil {
			return nil, err
		}
		out[name] = b.Bytes()
	}
	var b bytes.Buffer
	if err := res.Report(&b); err != nil {
		return nil, err
	}
	out["report.txt"] = b.Bytes()
	return out, nil
}

func (d *mirror) write(out string, art map[string][]byte) error {
	return d.t.do("output.write", func() error {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		for name, b := range art {
			if err := os.WriteFile(filepath.Join(out, name), b, 0o644); err != nil {
				return err
			}
		}
		return nil
	})
}

// replay mirrors a cache-free `lockdown -logs root [-shards n]` run.
func (d *mirror) replay(root, out string, shards int) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	pipe, err := d.newPipeline(reg, shards)
	if err != nil {
		return err
	}
	opts := d.guard()
	ts, sink := d.feed(pipe)
	if err := d.t.do("logsink.replay", func() error {
		err := logsink.ReplayRotatedWithOptions(root, sink, opts)
		d.foldCore(ts)
		return err
	}); err != nil {
		return err
	}
	truth, err := d.population(reg, pipe)
	if err != nil {
		return err
	}
	art, err := d.figures(d.finalize(pipe), truth)
	if err != nil {
		return err
	}
	return d.write(out, art)
}

// cacheKeys mirrors cmd/lockdown's stage-cache key recipes, so that the
// mirror's cache sees the CLI's pattern of hits and misses. The code
// digest is the mirror's own executable, so its entries are its own.
type cacheKeys struct {
	code, rules stagecache.Digest
	key         []byte
	scale       float64
	seed        int64
}

func (k cacheKeys) base(h *stagecache.Hasher) {
	h.Digest("code", k.code)
	h.Digest("rules", k.rules)
}

func (k cacheKeys) stats(logs stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/stats")
	k.base(h)
	h.Int("dataset_codec", core.DatasetCodecVersion)
	h.Bytes("key", k.key)
	h.Float("scale", k.scale)
	h.Int("seed", k.seed)
	h.Bool("no_pandemic", false)
	h.String("source", "logs")
	h.Digest("dataset", logs)
	k.faults(h)
	return h.Sum()
}

func (k cacheKeys) faults(h *stagecache.Hasher) {
	h.String("fault_policy", "strict")
	h.Float("fault_budget", 0.001)
	h.Float("fault_inject", 0)
	h.Int("fault_seed", 1)
}

func (k cacheKeys) statsday(prev stagecache.Digest, day string, tree stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/statsday")
	k.base(h)
	h.Int("dataset_codec", core.DatasetCodecVersion)
	h.Int("checkpoint_codec", core.CheckpointCodecVersion)
	h.Bytes("key", k.key)
	k.faults(h)
	h.Digest("prev", prev)
	h.String("day", day)
	h.Digest("tree", tree)
	return h.Sum()
}

func (k cacheKeys) figures(ds, truth stagecache.Digest) stagecache.Digest {
	h := stagecache.NewHasher("lockdown/figures")
	k.base(h)
	h.Digest("dataset", ds)
	h.Digest("truth", truth)
	h.Bool("yoy", false)
	h.Float("scale", k.scale)
	h.Int("seed", k.seed)
	h.Int("fig_workers", 0)
	return h.Sum()
}

// statsday is the probe accounting of one cached run: the statsday chain's
// days, replays, checkpoint hits and misses, and whether the stats and
// figures stages hit.
type statsday struct {
	days, replayed, hits, misses int
	statsHit, figuresHit         bool
}

func (d *mirror) digest(dir string) (dg stagecache.Digest, err error) {
	err = d.t.do("stagecache.digest", func() error {
		var n int64
		dg, n, err = stagecache.TreeDigest(dir)
		d.hashed += n
		return err
	})
	return dg, err
}

// get probes the cache and returns a hit's verified payloads.
func (d *mirror) get(store *stagecache.Store, stage string, key stagecache.Digest, validate func(map[string][]byte) error) (files map[string][]byte, hit bool) {
	_ = d.t.do("stagecache.get", func() error {
		files, hit = store.GetBytes(stage, key, validate)
		return nil
	})
	return files, hit
}

func (d *mirror) put(store *stagecache.Store, stage string, key stagecache.Digest, inputs map[string]stagecache.Digest, files map[string][]byte) error {
	return d.t.do("stagecache.put", func() error { return store.PutBytes(stage, key, inputs, files) })
}

// cachedRun mirrors `lockdown -logs root -cache-dir cacheDir`: the stats
// stage probe; on a miss the statsday chain (restore the deepest
// checkpoint, replay and seal the days past it, merge, checkpoint), the
// truth rebuild and finalize; then the figures stage and the output files.
func (d *mirror) cachedRun(root, cacheDir, out string) (sd statsday, err error) {
	t := d.t
	reg, err := d.registry()
	if err != nil {
		return sd, err
	}
	k := cacheKeys{key: d.key, scale: d.scale, seed: d.seed}
	var store *stagecache.Store
	if err := t.do("stagecache.open", func() error {
		if k.code, err = stagecache.CodeDigest(); err != nil {
			return err
		}
		k.rules = stagecache.RulesDigest(reg, appsig.TableRows())
		mode, err := stagecache.ParseMode("readwrite")
		if err != nil {
			return err
		}
		store, err = stagecache.Open(cacheDir, mode, d.metrics)
		return err
	}); err != nil {
		return sd, err
	}
	logs, err := d.digest(root)
	if err != nil {
		return sd, err
	}
	statsKey := k.stats(logs)
	var ds *core.Dataset
	var truth map[anonymize.DeviceID]devclass.Type
	files, hit := d.get(store, "stats", statsKey, func(files map[string][]byte) error {
		return t.do("core.dataset_decode", func() (err error) {
			if ds, err = core.DecodeDataset(files["dataset.bin"]); err != nil {
				return err
			}
			truth, err = core.DecodeTruth(files["truth.bin"])
			return err
		})
	})
	dsBytes, truthBytes := files["dataset.bin"], files["truth.bin"]
	sd.statsHit = hit
	if !hit {
		if ds, truth, err = d.statsStage(reg, store, k, root, &sd); err != nil {
			return sd, err
		}
		_ = t.do("core.dataset_encode", func() error {
			dsBytes, truthBytes = core.EncodeDataset(ds), core.EncodeTruth(truth)
			return nil
		})
		d.dsBytes = len(dsBytes)
		if err := d.put(store, "stats", statsKey,
			map[string]stagecache.Digest{"code": k.code, "rules": k.rules, "dataset": logs},
			map[string][]byte{"dataset.bin": dsBytes, "truth.bin": truthBytes}); err != nil {
			return sd, err
		}
	}
	var dsDigest, truthDigest stagecache.Digest
	_ = t.do("stagecache.digest", func() error {
		dsDigest, truthDigest = stagecache.ContentDigest(dsBytes), stagecache.ContentDigest(truthBytes)
		d.hashed += int64(len(dsBytes) + len(truthBytes))
		return nil
	})
	figKey := k.figures(dsDigest, truthDigest)
	art, hit := d.get(store, "figures", figKey, func(files map[string][]byte) error {
		for _, name := range append(figset.FigureNames(), "report.txt") {
			if _, ok := files[name]; !ok {
				return fmt.Errorf("figures entry missing %s", name)
			}
		}
		return nil
	})
	sd.figuresHit = hit
	if !hit {
		if art, err = d.figures(ds, truth); err != nil {
			return sd, err
		}
		if err := d.put(store, "figures", figKey,
			map[string]stagecache.Digest{"dataset": dsDigest, "truth": truthDigest}, art); err != nil {
			return sd, err
		}
	}
	c := store.Counters()
	d.cache.Hits += c.Hits
	d.cache.Misses += c.Misses
	d.cache.Invalidations += c.Invalidations
	d.cache.VerifyFailures += c.VerifyFailures
	return sd, d.write(out, art)
}

// statsStage builds the stats stage on a miss: the statsday chain over
// root's days, the truth rebuild and finalize.
func (d *mirror) statsStage(reg *universe.Registry, store *stagecache.Store, k cacheKeys, root string, sd *statsday) (*core.Dataset, map[anonymize.DeviceID]devclass.Type, error) {
	t := d.t
	days, err := logsink.DayDirs(root)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]stagecache.Digest, len(days))
	var prev stagecache.Digest
	for i, day := range days {
		tree, err := d.digest(filepath.Join(root, day))
		if err != nil {
			return nil, nil, err
		}
		keys[i] = k.statsday(prev, day, tree)
		prev = keys[i]
	}
	sd.days = len(days)
	opts := core.Options{Key: d.key, Obs: d.metrics}
	var pipe *core.Pipeline
	start := 0
	for j := len(days) - 1; j >= 0; j-- {
		var restored *core.Pipeline
		if _, hit := d.get(store, "statsday", keys[j], func(files map[string][]byte) error {
			return t.do("core.checkpoint_restore", func() (err error) {
				restored, err = core.RestoreCheckpoint(reg, opts, files["checkpoint.bin"])
				return err
			})
		}); hit {
			pipe, start = restored, j+1
			sd.hits++
			break
		}
		sd.misses++
	}
	if pipe == nil {
		p, err := d.newPipeline(reg, 1)
		if err != nil {
			return nil, nil, err
		}
		pipe = p.(*core.Pipeline)
	}

	replayOpts := d.guard()
	ts, sink := d.feed(pipe)
	baseStats := pipe.Stats()
	var parts []*core.DayPartial
	for i := start; i < len(days); i++ {
		if err := t.do("logsink.replay_day", func() error {
			err := logsink.ReplayRotatedDay(root, days[i], sink, replayOpts)
			d.foldCore(ts)
			return err
		}); err != nil {
			return nil, nil, err
		}
		_ = t.do("core.seal", func() error {
			parts = append(parts, pipe.SealDay(days[i]))
			return nil
		})
		sd.replayed++
	}
	if len(parts) > 0 {
		if err := t.do("core.merge", func() error {
			merged, err := core.MergeDayPartials(parts)
			if err != nil {
				return err
			}
			if got, want := baseStats.Add(merged.Stats), pipe.Stats(); got != want {
				return fmt.Errorf("merged day partials %+v != pipeline stats %+v", got, want)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		d.mergeParts += int64(len(parts))
		var ckpt []byte
		if err := t.do("core.checkpoint_encode", func() (err error) {
			ckpt, err = pipe.EncodeCheckpoint()
			return err
		}); err != nil {
			return nil, nil, err
		}
		d.ckptBytes = len(ckpt)
		if err := d.put(store, "statsday", keys[len(days)-1],
			map[string]stagecache.Digest{"code": k.code, "rules": k.rules},
			map[string][]byte{"checkpoint.bin": ckpt}); err != nil {
			return nil, nil, err
		}
	}

	truth, err := d.population(reg, pipe)
	if err != nil {
		return nil, nil, err
	}
	return d.finalize(pipe), truth, nil
}

// timedSealer is the figset.Sealer the daemon path seals through, with a
// span around each call into the pipeline. On a sharded pipeline the
// wait for the shards to drain is its own span, taken just before the
// seal would take it.
type timedSealer struct {
	p sealerPipeline
	t *tracer
}

// sealerPipeline is what both pipeline kinds offer the daemon path.
type sealerPipeline interface {
	figset.Sealer
	pipeline
}

func (s timedSealer) SealDay(label string) *core.DayPartial {
	if sp, ok := s.p.(*core.ShardedPipeline); ok {
		end := s.t.begin("core.sharded.quiesce")
		sp.Quiesce()
		end()
	}
	end := s.t.begin("core.seal")
	defer end()
	return s.p.SealDay(label)
}

func (s timedSealer) SnapshotDelta(prev *core.Dataset, dp *core.DayPartial) *core.Dataset {
	end := s.t.begin("core.snapshot")
	defer end()
	return s.p.SnapshotDelta(prev, dp)
}

// live mirrors `lockdownd -shards n` over root: the truth rebuild before
// ingest, then a tail that seals an epoch per day through
// figset.Incremental, then the final figures once the COMPLETE sentinel
// lands. onPrefix runs once the first prefix-1 epochs are sealed. It
// returns the final figures and report.
func (d *mirror) live(root string, shards, prefix int, onPrefix func()) (map[string][]byte, error) {
	t := d.t
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	p, err := d.newPipeline(reg, shards)
	if err != nil {
		return nil, err
	}
	pipe := p.(sealerPipeline)
	truth, err := d.population(reg, pipe)
	if err != nil {
		return nil, err
	}
	inc := figset.NewIncremental(timedSealer{p: pipe, t: t}, figset.Params{Scale: d.scale, Seed: d.seed, Truth: truth}, core.Stats{})
	// lockdownd runs without a guard under the strict policy; a strict
	// guard changes nothing but adds the offered/accepted accounting.
	opts := logsink.TailOptions{ReplayOptions: d.guard(), Poll: tailPoll}
	ts, sink := d.feed(pipe)
	// The tail goroutine stays on one thread, so that the thread's CPU time
	// tells its busy time from its waiting for the next day to land.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var sealWall, sealCPU time.Duration
	stop := make(chan struct{})
	var sealErr error
	epoch := 0
	opts.Stop = stop
	opts.OnDaySealed = func(day string, final bool) {
		epoch++
		if epoch == prefix-1 {
			onPrefix()
		}
		if final || sealErr != nil {
			return
		}
		w0, c0 := time.Now(), threadCPU()
		end := t.begin("figset.seal")
		ep, err := inc.Seal(day)
		if err == nil {
			// Compute runs inside Seal; it reports its own wall time.
			wall := time.Duration(ep.FigWallMS * float64(time.Millisecond))
			t.fold("figset.compute", acc{dur: wall, calls: 1, first: time.Now().Add(-wall)})
			d.addFigMS(ep.FigMS)
			d.mergeParts += int64(epoch)
		}
		end()
		sealWall += time.Since(w0)
		sealCPU += threadCPU() - c0
		if err != nil {
			sealErr = err
			close(stop)
		}
	}
	if err := t.do("logsink.tail", func() error {
		w0, c0 := time.Now(), threadCPU()
		err := logsink.TailRotated(root, sink, opts)
		d.tailCPU = threadCPU() - c0
		// Outside the seals, wall time the tail's thread spent off the CPU
		// is time it waited for input.
		var idle acc
		idle.add(w0, (time.Since(w0)-sealWall)-(d.tailCPU-sealCPU))
		d.foldCore(ts)
		t.fold("logsink.tail_idle", idle)
		return err
	}); err != nil {
		if sealErr != nil {
			return nil, sealErr
		}
		return nil, err
	}
	ds := d.finalize(pipe)
	return d.figures(ds, truth)
}

// processCPU is this process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the overhead figure then reads 0; it is not gated
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's user + system CPU time.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0 // the idle figure then reads as the whole tail; it is not gated
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
