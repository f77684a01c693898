package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// dataset is a generated rotated dataset with the record counts the
// correctness gate checks the fault guard's accounting against.
type dataset struct {
	root    string
	days    []string // day directory names in date order
	records []int64  // data records per day, across the four logs
	bytes   []int64  // log bytes per day
	total   int64    // data records in the whole dataset
}

// prepare builds the workload's inputs setupReps times and keeps the first
// copy: tracegen, plus, when held > 0, holding back the last held days and
// seeding the stage cache with a -cache-dir run over the remaining prefix.
// Every repeat must reproduce the first dataset byte for byte. setup_s is
// the median repeat. It also builds the reference the measured runs are
// checked against.
func prepare(e *env, held int) error {
	root := filepath.Join(e.work, "ds")
	reps := setupReps
	if e.cfg.trace {
		reps = 1 // a traced run reports no set-up time
	}
	for rep := 0; rep < reps; rep++ {
		dir := root
		if rep > 0 {
			dir = filepath.Join(e.work, fmt.Sprintf("ds-rep%d", rep))
		}
		r, err := runProc(e.tool("tracegen"), "-out", dir, "-rotate", "-scale", benchScale,
			"-seed", e.seedArg(), "-days", benchDays)
		if err != nil {
			return err
		}
		e.setup = append(e.setup, r.wall.Seconds())
		if rep > 0 {
			if err := diffTrees(root, dir); err != nil {
				return fmt.Errorf("tracegen repeat %d differs from the first dataset of seed %d: %w", rep, e.cfg.seed, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	ds, err := scanDataset(root)
	if err != nil {
		return err
	}
	e.ds = ds
	if e.ref, err = makeReference(e); err != nil {
		return err
	}
	var size int64
	for _, b := range ds.bytes {
		size += b
	}
	fmt.Printf("dataset: %d days, %d records, %d bytes, %d flows in the reference\n", len(ds.days), ds.total, size, e.ref.flows)
	if held == 0 {
		return nil
	}
	if held >= len(ds.days) {
		return fmt.Errorf("cannot hold back %d of %d days", held, len(ds.days))
	}
	if err := moveDays(root, heldDir(e), ds.days[len(ds.days)-held:]); err != nil {
		return err
	}
	prefix := ds.days[:len(ds.days)-held]
	var prefixRecords int64
	for _, n := range ds.records[:len(prefix)] {
		prefixRecords += n
	}
	for rep := 0; rep < reps; rep++ {
		cache := seedCacheDir(e)
		if rep > 0 {
			cache = filepath.Join(e.work, fmt.Sprintf("cache-rep%d", rep))
		}
		out := filepath.Join(e.work, "seed-out")
		r, err := runProc(e.tool("lockdown"), lockdownArgs(e, root, out, "-cache-dir", cache)...)
		if err != nil {
			return err
		}
		e.setup[rep] += r.wall.Seconds()
		if err := checkGuard(r.stderr, prefixRecords); err != nil {
			return fmt.Errorf("cache-seeding run: %w", err)
		}
		want := fmt.Sprintf("statsday: days=%d replayed=%d misses=%d hits=0", len(prefix), len(prefix), len(prefix))
		if !bytes.Contains(r.stderr, []byte(want)) {
			return fmt.Errorf("cache-seeding run did not cold-build every prefix day (want %q): %s", want, lastBytes(r.stderr, 400))
		}
		for _, dir := range []string{out, filepath.Join(e.work, fmt.Sprintf("cache-rep%d", rep))} {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

func heldDir(e *env) string      { return filepath.Join(e.work, "held") }
func seedCacheDir(e *env) string { return filepath.Join(e.work, "cache-seed") }

// lockdownArgs is the argument list of every lockdown run: the workload's
// scale and seed (the truth rebuild depends on both) and the pinned key.
func lockdownArgs(e *env, root, out string, extra ...string) []string {
	return append([]string{"-logs", root, "-scale", benchScale, "-seed", e.seedArg(),
		"-key", benchKey, "-quiet", "-out", out}, extra...)
}

func moveDays(from, to string, days []string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, d := range days {
		if err := os.Rename(filepath.Join(from, d), filepath.Join(to, d)); err != nil {
			return err
		}
	}
	return nil
}

// scanDataset lists root's day directories and counts each day's records:
// every non-empty line that is not a '#' header or footer line.
func scanDataset(root string) (*dataset, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	ds := &dataset{root: root}
	for _, en := range entries {
		if en.IsDir() {
			ds.days = append(ds.days, en.Name())
		}
	}
	sort.Strings(ds.days)
	if len(ds.days) == 0 {
		return nil, fmt.Errorf("no day directories under %s", root)
	}
	for _, d := range ds.days {
		n, size, err := countRecords(filepath.Join(root, d))
		if err != nil {
			return nil, err
		}
		ds.records = append(ds.records, n)
		ds.bytes = append(ds.bytes, size)
		ds.total += n
	}
	return ds, nil
}

func countRecords(dir string) (records, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, en := range entries {
		if !en.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			return 0, 0, err
		}
		size += int64(len(b))
		for len(b) > 0 {
			line := b
			if i := bytes.IndexByte(b, '\n'); i >= 0 {
				line, b = b[:i], b[i+1:]
			} else {
				b = nil
			}
			if len(line) > 0 && line[0] != '#' {
				records++
			}
		}
	}
	return records, size, nil
}

// treeFiles maps every regular file under dir to its path relative to dir.
func treeFiles(dir string) (map[string]string, error) {
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			rel, err := filepath.Rel(dir, p)
			if err != nil {
				return err
			}
			files[rel] = p
		}
		return nil
	})
	return files, err
}

// diffTrees reports the first difference between two directory trees.
func diffTrees(a, b string) error {
	fa, err := treeFiles(a)
	if err != nil {
		return err
	}
	fb, err := treeFiles(b)
	if err != nil {
		return err
	}
	if len(fa) != len(fb) {
		return fmt.Errorf("%d files vs %d", len(fa), len(fb))
	}
	for rel, pa := range fa {
		pb, ok := fb[rel]
		if !ok {
			return fmt.Errorf("%s missing from the second tree", rel)
		}
		ba, err := os.ReadFile(pa)
		if err != nil {
			return err
		}
		bb, err := os.ReadFile(pb)
		if err != nil {
			return err
		}
		if !bytes.Equal(ba, bb) {
			return fmt.Errorf("%s differs at byte %d", rel, firstDiff(ba, bb))
		}
	}
	return nil
}

// copyTree copies src's regular files into dst, which must not exist.
func copyTree(src, dst string) error {
	files, err := treeFiles(src)
	if err != nil {
		return err
	}
	for rel, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// reference is the cache-free single-shard lockdown run every measured
// run's outputs must match byte for byte.
type reference struct {
	files map[string][]byte // figure CSVs and report.txt
	flows int64             // flows the pipeline processed
}

var (
	guardRe = regexp.MustCompile(`fault guard: policy=\S+ offered=(\d+) accepted=(\d+) dropped=(\d+)`)
	flowsRe = regexp.MustCompile(`pipeline: (\d+) flows`)
)

// makeReference runs lockdown over the full dataset with the same scale
// and seed tracegen used and the pinned key, with no cache and one shard.
func makeReference(e *env) (*reference, error) {
	out := filepath.Join(e.work, "ref")
	r, err := runProc(e.tool("lockdown"), lockdownArgs(e, e.ds.root, out)...)
	if err != nil {
		return nil, err
	}
	if err := checkGuard(r.stderr, e.ds.total); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	m := flowsRe.FindSubmatch(r.stderr)
	if m == nil {
		return nil, errors.New("reference run printed no pipeline line")
	}
	flows, _ := strconv.ParseInt(string(m[1]), 10, 64) // \d+ always parses
	files, err := readOutputs(out)
	if err != nil {
		return nil, err
	}
	if _, ok := files["report.txt"]; !ok || len(files) < 2 {
		return nil, fmt.Errorf("reference run wrote %d files and no report.txt", len(files))
	}
	return &reference{files: files, flows: flows}, os.RemoveAll(out)
}

// checkDir compares an output directory against the reference.
func (ref *reference) checkDir(dir string) error {
	got, err := readOutputs(dir)
	if err != nil {
		return err
	}
	return compareOutputs(got, ref.files)
}

// checkGuard parses lockdown's fault-guard audit line and requires every
// offered record accepted, none dropped, and the offered count equal to
// the records counted in the dataset files.
func checkGuard(stderr []byte, want int64) error {
	m := guardRe.FindSubmatch(stderr)
	if m == nil {
		return errors.New("no fault guard line in lockdown's status output")
	}
	offered, _ := strconv.ParseInt(string(m[1]), 10, 64)
	accepted, _ := strconv.ParseInt(string(m[2]), 10, 64)
	dropped, _ := strconv.ParseInt(string(m[3]), 10, 64)
	if offered != want || accepted != want || dropped != 0 {
		return fmt.Errorf("fault guard offered=%d accepted=%d dropped=%d, want all %d records in the dataset files offered and accepted",
			offered, accepted, dropped, want)
	}
	return nil
}

func readOutputs(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, en := range entries {
		if !en.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, en.Name()))
		if err != nil {
			return nil, err
		}
		files[en.Name()] = b
	}
	return files, nil
}

// compareOutputs requires exactly the reference's files with exactly its
// bytes, and names the first difference.
func compareOutputs(got, want map[string][]byte) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			return fmt.Errorf("output %s missing", n)
		}
		if !bytes.Equal(g, want[n]) {
			return fmt.Errorf("output %s differs from the reference at byte %d (%d vs %d bytes)", n, firstDiff(g, want[n]), len(g), len(want[n]))
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("unexpected output %s", n)
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
