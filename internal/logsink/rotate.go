package logsink

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
)

// RotatingWriter writes one dataset directory per study day
// (<root>/2020-02-01/conn.log, ...), the way Zeek rotates its logs. Events
// must arrive in non-decreasing time order (the generator's contract);
// each day boundary closes the previous day's logs.
type RotatingWriter struct {
	root     string
	compress bool
	cur      *Writer
	curDay   campus.Day
	started  bool
	err      error
}

// NewRotatingWriter returns a writer rotating under root.
func NewRotatingWriter(root string, compress bool) (*RotatingWriter, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &RotatingWriter{root: root, compress: compress}, nil
}

func (rw *RotatingWriter) fail(err error) {
	if rw.err == nil && err != nil {
		rw.err = err
	}
}

// ensure switches to the day's writer, rotating if needed.
func (rw *RotatingWriter) ensure(day campus.Day) *Writer {
	if rw.err != nil {
		return nil
	}
	if rw.started && day == rw.curDay {
		return rw.cur
	}
	if rw.started {
		rw.fail(rw.cur.Close())
	}
	w, err := newWriter(filepath.Join(rw.root, day.String()), rw.compress)
	if err != nil {
		rw.fail(err)
		return nil
	}
	rw.cur, rw.curDay, rw.started = w, day, true
	return w
}

// Flow implements trace.Sink.
func (rw *RotatingWriter) Flow(r flow.Record) {
	if day, ok := campus.DayOf(r.Start); ok {
		if w := rw.ensure(day); w != nil {
			w.Flow(r)
		}
	}
}

// DNS implements trace.Sink.
func (rw *RotatingWriter) DNS(e dnssim.Entry) {
	if day, ok := campus.DayOf(e.Time); ok {
		if w := rw.ensure(day); w != nil {
			w.DNS(e)
		}
	}
}

// HTTPMeta implements trace.Sink.
func (rw *RotatingWriter) HTTPMeta(e httplog.Entry) {
	if day, ok := campus.DayOf(e.Time); ok {
		if w := rw.ensure(day); w != nil {
			w.HTTPMeta(e)
		}
	}
}

// Lease implements trace.Sink.
func (rw *RotatingWriter) Lease(l dhcp.Lease) {
	if day, ok := campus.DayOf(l.Start); ok {
		if w := rw.ensure(day); w != nil {
			w.Lease(l)
		}
	}
}

// Close finishes the open day.
func (rw *RotatingWriter) Close() error {
	if rw.started {
		rw.fail(rw.cur.Close())
	}
	return rw.err
}

// ReplayRotated replays a rotated dataset: every day directory under root,
// in date order. Because DHCP leases can span day boundaries, all lease
// logs are replayed before any traffic.
func ReplayRotated(root string, sink trace.Sink) error {
	return ReplayRotatedWithOptions(root, sink, ReplayOptions{})
}

// ReplayRotatedWithOptions is ReplayRotated with the fault-robustness
// layer. One guard spans the whole dataset (the error budget is global,
// matching a multi-month run); injection sub-seeds per day directory, then
// per file, so corruption is independent across every file of the dataset.
func ReplayRotatedWithOptions(root string, sink trace.Sink, opts ReplayOptions) error {
	days, err := DayDirs(root)
	if err != nil {
		return err
	}
	dirs := make([]string, len(days))
	dayOpts := make([]ReplayOptions, len(days))
	for i, d := range days {
		dirs[i], dayOpts[i] = filepath.Join(root, d), opts.day(d)
	}
	return replayLeasesFirst(sink, dirs, dayOpts)
}

// DayDirs returns the dataset's day directory names under root in date
// order — the unit the per-day stats cache keys and replays. Unlike the
// tail's listing, a missing or empty root is an error here.
func DayDirs(root string) ([]string, error) {
	days, err := dayDirs(root)
	if err == nil && len(days) == 0 {
		err = fmt.Errorf("logsink: no day directories under %s", root)
	}
	return days, err
}

// dayDirs lists root's day directories in chronological (lexical) order.
// A root that does not exist yet is an empty dataset, not an error — a
// tailed dataset's writer may not have started.
func dayDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var days []string
	for _, e := range entries {
		if e.IsDir() {
			days = append(days, e.Name())
		}
	}
	sort.Strings(days) // YYYY-MM-DD sorts chronologically
	return days, nil
}

// ReplayRotatedDay replays exactly one day directory as one timestamp
// merge of its four logs: leases interleaved with the traffic, winning
// ties. It is the very call one day of TailRotated makes, with the batch
// opener instead of the tail's, so a one-day append and a daemon epoch
// feed the pipeline an identical event stream. Injection sub-seeds per
// day as the whole-dataset replay does, so the day sees the same
// corruption either way.
//
// Replaying days one at a time this way is equivalent to the
// whole-dataset order (all leases, then all traffic) for every lookup the
// pipeline performs: a lease can only match timestamps at or after its
// start, so a lease delivered after traffic that precedes it is invisible
// to that traffic, and a renewal that coalesces with a span from an
// earlier day only extends its end — affecting only lookups at or after
// the renewal. Leases still arrive in global start order. The tail parity
// tests and the CI append and daemon smokes pin the equivalence end to
// end.
func ReplayRotatedDay(root, day string, sink trace.Sink, opts ReplayOptions) error {
	return replayDay(root, day, sink, opts, openLog)
}
