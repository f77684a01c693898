package logsink

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/zeeklog"
)

// Every replay in this package — whole-dataset, one rotated day, and the
// live tail — runs the same engine: a timestamp merge over whichever log
// streams a pass reads, one guard loop per record, and one Batcher per
// replay. The only seam between batch files and a growing dataset is the
// opener.

// opener opens one log of a directory: openLog for finished files (plain
// or gzipped), a tailer for growing plain files whose reads block at
// end-of-file until the day is final.
type opener func(dir, name string) (io.ReadCloser, error)

// mergeOrder breaks timestamp ties: a binding precedes the flows it
// attributes and a resolution precedes the flows it labels.
var mergeOrder = [...]string{DHCPFile, DNSFile, ConnFile, HTTPFile}

// logStream is the shape every per-file reader shares (conn, dns, dhcp,
// http): typed record iteration plus the raw line and line number the
// guard reports on rejects.
type logStream[T any] interface {
	Next() (T, error)
	Raw() string
	Line() int
}

// head is one stream's position in a merge.
type head interface {
	// advance moves to the stream's next accepted record.
	advance(opts ReplayOptions) error
	// peek returns the current record's timestamp; false once exhausted.
	peek() (time.Time, bool)
	// record returns a pointer to the current record.
	record() any
}

// stream is the merge head of one log.
type stream[T any] struct {
	r      logStream[T]
	source string // guard label: the file name without ".log"
	cur    T
	t      time.Time // cur's merge timestamp
	ok     bool
	prev   string // previous raw line, for lenient duplicate detection
}

// advance fills the head with the stream's next accepted record, applying
// the guard policy and (under lenient policies) adjacent-duplicate
// detection. Decode errors go to the guard; the first one is fatal under
// the strict policy.
func (s *stream[T]) advance(opts ReplayOptions) error {
	g := opts.Guard
	for {
		v, err := s.r.Next()
		if err == io.EOF {
			s.ok = false
			return nil
		}
		if err != nil {
			if rerr := g.Reject(s.source, s.r.Raw(), err); rerr != nil {
				return rerr
			}
			continue
		}
		if opts.lenient() {
			raw := s.r.Raw()
			if raw != "" && raw == s.prev {
				if rerr := g.RejectDuplicate(s.source, s.r.Line(), raw); rerr != nil {
					return rerr
				}
				continue
			}
			s.prev = raw
		}
		g.Accept()
		s.cur, s.ok = v, true
		s.t = recordTime(&s.cur)
		return nil
	}
}

func (s *stream[T]) peek() (time.Time, bool) { return s.t, s.ok }
func (s *stream[T]) record() any             { return &s.cur }

// newHead wraps one opened log in its typed reader, reading the header.
func newHead(name string, in io.Reader) (head, error) {
	source := strings.TrimSuffix(name, ".log")
	switch name {
	case DHCPFile:
		r, err := dhcp.NewLogReader(in)
		return &stream[dhcp.Lease]{r: r, source: source}, err
	case ConnFile:
		r, err := zeeklog.NewConnReader(in)
		return &stream[flow.Record]{r: r, source: source}, err
	case DNSFile:
		r, err := dnssim.NewLogReader(in)
		return &stream[dnssim.Entry]{r: r, source: source}, err
	default:
		r, err := httplog.NewReader(in)
		return &stream[httplog.Entry]{r: r, source: source}, err
	}
}

// recordTime is a record's merge timestamp.
func recordTime(v any) time.Time {
	switch v := v.(type) {
	case *dhcp.Lease:
		return v.Start
	case *flow.Record:
		return v.Start
	case *dnssim.Entry:
		return v.Time
	default:
		return v.(*httplog.Entry).Time
	}
}

// replay is one replay's delivery state: every event goes through one
// Batcher, and each UTC day boundary in the traffic is a stream boundary
// (a flush), so a batch-capable sink (the sharded pipeline) seals and
// publishes its join-table delta at least once per replayed day. Leases
// never roll the day, so a leases-first pass adds no boundary of its own.
type replay struct {
	out    *trace.Batcher
	open   opener
	curDay time.Time // UTC day of the latest traffic event
}

func newReplay(sink trace.Sink, open opener) *replay {
	return &replay{out: trace.NewBatcher(sink), open: open}
}

// roll flushes when a traffic event opens a new UTC day.
func (rp *replay) roll(t time.Time) {
	day := t.UTC().Truncate(24 * time.Hour)
	if !rp.curDay.IsZero() && day.After(rp.curDay) {
		rp.out.Flush()
	}
	rp.curDay = day
}

// emit delivers one record.
func (rp *replay) emit(v any) {
	switch v := v.(type) {
	case *dhcp.Lease:
		rp.out.Lease(*v)
	case *flow.Record:
		rp.roll(v.Start)
		rp.out.Flow(*v)
	case *dnssim.Entry:
		rp.roll(v.Time)
		rp.out.DNS(*v)
	default:
		e := v.(*httplog.Entry)
		rp.roll(e.Time)
		rp.out.HTTPMeta(*e)
	}
}

// pass streams the named logs of dir into the replay as one timestamp
// merge. The logs open, and meet the guard, in the order given (log
// headers are fatal under every policy: a file whose schema cannot be
// read contributes nothing to skip over); mergeOrder breaks ties. pass
// does not flush.
func (rp *replay) pass(dir string, opts ReplayOptions, names ...string) error {
	byName := make(map[string]head, len(names))
	for _, name := range names {
		f, err := rp.open(dir, name)
		if err != nil {
			return err
		}
		defer f.Close()
		h, err := newHead(name, opts.inject(f, name))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		byName[name] = h
	}
	for _, name := range names {
		if err := byName[name].advance(opts); err != nil {
			return err
		}
	}
	heads := make([]head, 0, len(names))
	for _, name := range mergeOrder {
		if h, ok := byName[name]; ok {
			heads = append(heads, h)
		}
	}
	for {
		var best head
		var bt time.Time
		for _, h := range heads {
			if t, ok := h.peek(); ok && (best == nil || t.Before(bt)) {
				best, bt = h, t
			}
		}
		if best == nil {
			return nil
		}
		rp.emit(best.record())
		if err := best.advance(opts); err != nil {
			return err
		}
	}
}

// replayDay streams one day directory of a rotated dataset into sink as a
// single four-way merge (leases interleaved with the traffic by
// timestamp), flushed at the day's end. It is the one-day unit both
// ReplayRotatedDay and TailRotated run; only the opener differs.
func replayDay(root, day string, sink trace.Sink, opts ReplayOptions, open opener) error {
	rp := newReplay(sink, open)
	if err := rp.pass(filepath.Join(root, day), opts.day(day), DHCPFile, ConnFile, DNSFile, HTTPFile); err != nil {
		return err
	}
	rp.out.Flush()
	return nil
}
