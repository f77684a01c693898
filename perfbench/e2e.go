package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runReplays is replay_cold (shards = 1) and replay_sharded: repeated
// cache-free lockdown replays of the whole dataset for the measured
// window, each checked against the reference.
func runReplays(e *env, shards int) (*report, error) {
	if err := prepare(e, 0); err != nil {
		return nil, err
	}
	var extra []string
	if shards > 1 {
		extra = []string{"-shards", fmt.Sprint(shards)}
	}
	rep := &report{}
	var walls, cpus, rss []float64
	out := filepath.Join(e.work, "out")
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.cfg.seconds {
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		r, err := runProc(e.tool("lockdown"), lockdownArgs(e, e.ds.root, out, extra...)...)
		if err == nil {
			err = checkGuard(r.stderr, e.ds.total)
		}
		if err == nil {
			err = e.ref.checkDir(out)
		}
		rep.attempt(err)
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
	}
	rep.add("setup_s", "s", median(e.setup), fmt.Sprintf("median of %d set-ups (tracegen)", len(e.setup)))
	rep.add("latency_ms", "ms", minimum(walls)*1000, "best replay wall: "+summary(walls, "s"))
	addCPU(rep, e, minimum(cpus), "least lockdown user+system CPU of a replay: "+summary(cpus, "s"))
	rep.add("peak_rss_mb", "MB", minimum(rss), "lowest lockdown peak RSS of the replays: "+summary(rss, "MB"))
	rep.addExtra("wall_s", "s", median(walls), summary(walls, "s"))
	return rep, nil
}

// runAppends is append_days. Set-up seeds the stage cache with a run over
// the dataset minus its final day. Every cycle restores that seeded cache,
// lands the final day and runs lockdown -cache-dir twice: the append,
// which must replay exactly that day, and then a re-run with nothing new,
// which must hit both cached stages. Every cycle is the same work, so the
// cycles of a run are samples of one operation. Both runs must match the
// reference.
func runAppends(e *env) (*report, error) {
	if err := prepare(e, 1); err != nil {
		return nil, err
	}
	n := len(e.ds.days)
	last := e.ds.days[n-1:]
	cache := filepath.Join(e.work, "cache")
	out := filepath.Join(e.work, "out")
	rep := &report{}
	var appends, reads, cpus, rss []float64
	start := time.Now()
	for len(appends) == 0 || time.Since(start) < e.cfg.seconds {
		if err := os.RemoveAll(cache); err != nil {
			return nil, err
		}
		if err := copyTree(seedCacheDir(e), cache); err != nil {
			return nil, err
		}
		if err := moveDays(heldDir(e), e.ds.root, last); err != nil {
			return nil, err
		}
		var cpu time.Duration
		var peak float64
		for i, check := range []func([]byte) error{
			func(stderr []byte) error {
				if err := checkAppend(stderr, n); err != nil {
					return err
				}
				return checkGuard(stderr, e.ds.records[n-1])
			},
			func(stderr []byte) error {
				if err := checkWarm(stderr); err != nil {
					return err
				}
				return checkGuard(stderr, 0)
			},
		} {
			if err := os.RemoveAll(out); err != nil {
				return nil, err
			}
			r, err := runProc(e.tool("lockdown"), lockdownArgs(e, e.ds.root, out, "-cache-dir", cache)...)
			if err == nil {
				err = check(r.stderr)
			}
			if err == nil {
				err = e.ref.checkDir(out)
			}
			rep.attempt(err)
			if i == 0 {
				appends = append(appends, ms(r.wall))
			} else {
				reads = append(reads, ms(r.wall))
			}
			cpu += r.cpu
			peak = max(peak, r.rssMB)
		}
		cpus = append(cpus, cpu.Seconds())
		rss = append(rss, peak)
		if err := moveDays(e.ds.root, heldDir(e), last); err != nil {
			return nil, err
		}
	}
	rep.add("setup_s", "s", median(e.setup), fmt.Sprintf("median of %d set-ups (tracegen + cache-seeding prefix run)", len(e.setup)))
	rep.add("latency_ms", "ms", minimum(appends), "best one-day append, day landed to outputs written: "+summary(appends, "ms"))
	addCPU(rep, e, median(cpus), "median lockdown user+system CPU of an append plus its re-run: "+summary(cpus, "s"))
	rep.add("peak_rss_mb", "MB", minimum(rss), "lowest cycle peak RSS (the larger of its two lockdown runs): "+summary(rss, "MB"))
	rep.addExtra("append_s", "s", median(appends)/1000, summary(appends, "ms"))
	rep.addExtra("rerun_ms", "ms", minimum(reads), "best re-run with nothing new (both stages hit): "+summary(reads, "ms"))
	return rep, nil
}

// The batch workloads report the best of their operations: on a shared
// host, stolen and contended CPU only ever adds time, memory and CPU
// (a slower concurrent GC lets the heap overshoot), so the minimum is the
// figure that repeats; the median, tail and count stay in the note.

// addCPU books a workload's CPU per operation twice: as cpu_s for people,
// and per thousand dataset records for the result line, which takes the
// seed-to-seed difference in dataset size (up to a fifth) out of the
// comparison.
func addCPU(rep *report, e *env, cpuS float64, note string) {
	rep.addExtra("cpu_s", "s", cpuS, note)
	rep.add("cpu_ms_per_krec", "ms/krec", cpuS*1000/(float64(e.ds.total)/1000),
		fmt.Sprintf("cpu_s per thousand of the dataset's %d records", e.ds.total))
}

// checkAppend requires the statsday accounting of a one-day append: the
// probe at the new final day misses, the previous run's checkpoint hits,
// and exactly one day is replayed.
func checkAppend(stderr []byte, days int) error {
	want := fmt.Sprintf("statsday: days=%d replayed=1 misses=1 hits=1", days)
	if !bytes.Contains(stderr, []byte(want)) {
		return fmt.Errorf("append did not replay exactly one day (want %q): %s", want, lastBytes(stderr, 400))
	}
	return nil
}

// checkWarm requires a re-run over an unchanged dataset and cache to hit
// both cached stages and verify every payload.
func checkWarm(stderr []byte) error {
	const want = "hits=2 misses=0 invalidations=0 verify_failures=0 stats=hit figures=hit"
	if !bytes.Contains(stderr, []byte(want)) {
		return fmt.Errorf("re-run with nothing new did not hit both stages (want %q): %s", want, lastBytes(stderr, 400))
	}
	return nil
}
