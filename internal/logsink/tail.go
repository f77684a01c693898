package logsink

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// TailSentinel is the marker file name: its existence under a rotated
// dataset root declares the dataset complete (the writer will append no
// further bytes and create no further day directories).
const TailSentinel = "COMPLETE"

// ErrTailStopped is returned by TailRotated when its Stop channel closes.
// It propagates through the parsers as an ordinary (unclassified) stream
// error, so a line the writer was mid-append at shutdown is neither
// emitted nor counted as a decode drop — the tail simply stops between
// records.
var ErrTailStopped = errors.New("logsink: tail stopped")

// TailOptions configures TailRotated. The embedded ReplayOptions carry
// the same fault machinery batch replay uses (guard policy, seeded
// injection with identical per-day/per-file sub-seeding, so a tailed and
// a batch-replayed dataset see byte-identical corruption).
type TailOptions struct {
	ReplayOptions
	// Poll is the interval between checks for new bytes, new day
	// directories, and the sentinel (default 200ms).
	Poll time.Duration
	// Stop, when closed, aborts the tail with ErrTailStopped at the next
	// poll boundary.
	Stop <-chan struct{}
	// OnDaySealed, when non-nil, is called after each day directory has
	// been fully replayed into the sink (and the sink's batcher flushed —
	// a batch-capable sink has sealed the day's epoch). final is true
	// when the dataset is complete: this was the last day.
	OnDaySealed func(day string, final bool)
}

// TailRotated follows a growing rotated dataset under root, streaming
// events into sink as the writer produces them, and returns once the
// TailSentinel file declares the dataset complete (or with ErrTailStopped
// on Stop). Each day is replayed by exactly the call ReplayRotatedDay
// makes, with a blocking opener in place of the batch one, so the tail
// feeds the sink the same per-day stream a one-day append does. Against
// ReplayRotatedWithOptions the one difference is that DHCP leases are
// merged into each day's traffic in timestamp order (winning ties)
// instead of being replayed in a global first pass — a tail cannot read
// future days. The result is equivalent (see ReplayRotatedDay; the tail
// parity tests pin it).
//
// Within a day the tail blocks at end-of-file until more bytes arrive: a
// torn final line means "the writer is mid-append" and parsing resumes
// when the line completes — no duplicate event, no phantom truncated
// drop. A day is final once a later day directory or the sentinel exists
// (the rotating writer closes a day before starting the next); only then
// is a torn final line a real truncated record, handled by the guard
// exactly as batch replay handles it.
//
// Tail mode requires plain (uncompressed) logs: a gzip stream cannot be
// incrementally decoded past a torn tail.
func TailRotated(root string, sink trace.Sink, opts TailOptions) error {
	poll := opts.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	sentinelPath := filepath.Join(root, TailSentinel)

	seen := 0 // day directories fully replayed so far
	for {
		days, err := dayDirs(root)
		if err != nil {
			return err
		}
		complete := fileExists(sentinelPath)
		if seen < len(days) {
			day := days[seen]
			next := seen + 1
			t := &tailer{poll: poll, stop: opts.Stop, final: func() bool {
				if fileExists(sentinelPath) {
					return true
				}
				ds, err := dayDirs(root)
				return err == nil && len(ds) > next
			}}
			if err := replayDay(root, day, sink, opts.ReplayOptions, t.open); err != nil {
				return err
			}
			seen = next
			if opts.OnDaySealed != nil {
				ds, err := dayDirs(root)
				last := fileExists(sentinelPath) && err == nil && len(ds) == seen
				opts.OnDaySealed(day, last)
			}
			continue
		}
		if complete {
			if seen == 0 {
				return fmt.Errorf("logsink: no day directories under %s", root)
			}
			return nil
		}
		select {
		case <-opts.Stop:
			return ErrTailStopped
		case <-time.After(poll):
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// tailer is the tail's opener for one day: it waits for each log to
// appear and hands back a blocking tailReader over it. final reports
// whether the day can still grow.
type tailer struct {
	poll  time.Duration
	stop  <-chan struct{}
	final func() bool
}

// open opens one log for tailing, waiting for the file to appear (a
// freshly rotated day directory may not have all files yet).
func (t *tailer) open(dir, name string) (io.ReadCloser, error) {
	for {
		f, err := os.Open(filepath.Join(dir, name))
		if err == nil {
			return &tailReader{tailer: t, f: f}, nil
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
		if fileExists(filepath.Join(dir, name+".gz")) {
			return nil, fmt.Errorf("logsink: %s is gzip-compressed in %s; tail mode requires plain logs", name, dir)
		}
		if t.final() {
			return nil, fmt.Errorf("logsink: %s missing in finalized day directory %s", name, dir)
		}
		if err := t.wait(); err != nil {
			return nil, err
		}
	}
}

// wait sleeps one poll interval, or returns ErrTailStopped on stop.
func (t *tailer) wait() error {
	select {
	case <-t.stop:
		return ErrTailStopped
	case <-time.After(t.poll):
		return nil
	}
}

// tailReader is a blocking reader over one growing log file: at
// end-of-file it polls for more bytes, returning io.EOF only once the
// day is final (checked before a read that still found nothing — the
// writer closed the file before the finality marker appeared, so no more
// bytes can arrive), and ErrTailStopped when stop closes. The parsers'
// line scanners block inside Read, which is exactly the torn-tail
// contract: an incomplete final line waits for the writer instead of
// decoding as truncated.
type tailReader struct {
	*tailer
	f   *os.File
	fin bool // finality observed before the previous empty read
}

func (r *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := r.f.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if r.fin {
			return 0, io.EOF
		}
		if r.final() {
			// Drain once more: bytes may have landed between the empty
			// read above and the finality check.
			r.fin = true
			continue
		}
		if err := r.wait(); err != nil {
			return 0, err
		}
	}
}

func (r *tailReader) Close() error { return r.f.Close() }
