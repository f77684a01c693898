package main

import (
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/logsink"
	"repro/internal/trace"
	"repro/internal/universe"
)

// tinyScale keeps the gate tests to a few seconds: a few days of a
// population a third the size of the benchmark's.
const tinyScale = 0.003

func tinyDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale, cfg.Seed = tinyScale, 1
	gen, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := logsink.NewRotatingWriter(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.RunDays(w, 40, 43); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayTiny runs the in-process replay with the given truth-rebuild seed
// and returns its outputs and the records its guard was offered.
func replayTiny(t *testing.T, root string, seed int64) (map[string][]byte, int64) {
	t.Helper()
	key, _ := hex.DecodeString(benchKey)
	d := &mirror{t: newTracer("test", false), key: key, scale: tinyScale, seed: seed, figMS: map[string]float64{}}
	out := filepath.Join(t.TempDir(), "out")
	if err := d.replay(root, out, 1); err != nil {
		t.Fatal(err)
	}
	files, err := readOutputs(out)
	if err != nil {
		t.Fatal(err)
	}
	return files, d.guards[0].Offered()
}

func TestGateCatchesFlippedByteAndWrongSeed(t *testing.T) {
	root := tinyDataset(t)
	ds, err := scanDataset(root)
	if err != nil {
		t.Fatal(err)
	}
	ref, offered := replayTiny(t, root, 1)
	if offered != ds.total || ds.total == 0 {
		t.Fatalf("replay offered %d records, the files hold %d", offered, ds.total)
	}
	if _, ok := ref["report.txt"]; !ok || len(ref) < 2 {
		t.Fatalf("replay wrote %d files and no report", len(ref))
	}

	again, _ := replayTiny(t, root, 1)
	if err := compareOutputs(again, ref); err != nil {
		t.Fatalf("identical run rejected: %v", err)
	}

	// One flipped byte in one CSV.
	flipped := map[string][]byte{}
	for n, b := range ref {
		flipped[n] = append([]byte(nil), b...)
	}
	flipped["fig1_active_devices.csv"][len(flipped["fig1_active_devices.csv"])/2] ^= 1
	err = compareOutputs(flipped, ref)
	if err == nil || !strings.Contains(err.Error(), "fig1_active_devices.csv") {
		t.Fatalf("flipped byte: err = %v, want fig1_active_devices.csv named", err)
	}

	// The same dataset with the wrong -seed: the truth rebuild differs.
	wrong, _ := replayTiny(t, root, 2)
	if err := compareOutputs(wrong, ref); err == nil {
		t.Fatal("a run with the wrong seed passed the gate")
	}

	// Missing and extra files.
	delete(again, "report.txt")
	if err := compareOutputs(again, ref); err == nil {
		t.Fatal("missing report passed the gate")
	}
	again["report.txt"], again["stray.csv"] = ref["report.txt"], nil
	if err := compareOutputs(again, ref); err == nil {
		t.Fatal("extra output passed the gate")
	}
}

func TestCheckGuard(t *testing.T) {
	line := []byte("pipeline: 9 flows\nfault guard: policy=strict offered=12 accepted=12 dropped=0 []\n")
	if err := checkGuard(line, 12); err != nil {
		t.Fatal(err)
	}
	if err := checkGuard(line, 13); err == nil {
		t.Fatal("offered count that differs from the files passed")
	}
	if err := checkGuard([]byte("fault guard: policy=skip offered=12 accepted=11 dropped=1 []"), 12); err == nil {
		t.Fatal("a dropped record passed")
	}
	if err := checkGuard([]byte("pipeline: 9 flows"), 12); err == nil {
		t.Fatal("missing audit line passed")
	}
}

func TestCheckAppend(t *testing.T) {
	if err := checkAppend([]byte("statsday: days=112 replayed=1 misses=1 hits=1\n"), 112); err != nil {
		t.Fatal(err)
	}
	if err := checkAppend([]byte("statsday: days=112 replayed=112 misses=112 hits=0\n"), 112); err == nil {
		t.Fatal("a cold rebuild passed as an append")
	}
}
