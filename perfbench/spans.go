package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
)

// span is one timed call into a layer, made from the benchmark's own code
// around the call. An aggregate span folds many calls of one kind (the
// per-event sink calls of one replay) into a single record under their
// caller; Calls counts them. A group span only structures the tree: its
// self time is glue, which the ledger reports as unattributed.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_ms"` // from the run's origin
	End    float64 `json:"end_ms"`
	Dur    float64 `json:"dur_ms"` // End-Start, or the folded total of an aggregate
	Calls  int64   `json:"calls"`
	Group  bool    `json:"group,omitempty"`
}

// tracer records spans in memory for one single-goroutine run. A tracer
// that is off records nothing, so the same mirror code gives the untraced
// pass the tracing overhead is measured against.
type tracer struct {
	on     bool
	run    string
	origin time.Time
	spans  []span
	open   []int // indices of the open spans, innermost last
}

func newTracer(run string, on bool) *tracer {
	return &tracer{on: on, run: run, origin: time.Now()}
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.spans[t.open[len(t.open)-1]].ID
}

// begin opens a span under the innermost open span; the returned func
// closes it. Spans close in reverse order of opening.
func (t *tracer) begin(name string) func() {
	return t.open1(name, false)
}

// group opens a structural span.
func (t *tracer) group(name string) func() {
	return t.open1(name, true)
}

func (t *tracer) open1(name string, group bool) func() {
	if !t.on {
		return func() {}
	}
	t0 := time.Now()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Run: t.run,
		Start: ms(t0.Sub(t.origin)), Calls: 1, Group: group})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return func() {
		t1 := time.Now()
		t.spans[i].End = ms(t1.Sub(t.origin))
		t.spans[i].Dur = ms(t1.Sub(t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	end := t.begin(name)
	defer end()
	return f()
}

// fold records a as an aggregate span under the innermost open span.
func (t *tracer) fold(name string, a acc) {
	if !t.on || a.calls == 0 {
		return
	}
	start := ms(a.first.Sub(t.origin))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Run: t.run,
		Start: start, End: start + ms(a.dur), Dur: ms(a.dur), Calls: a.calls})
}

// write appends the spans as JSON lines to path.
func writeSpans(path string, runs ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range runs {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// acc accumulates the time spent in one kind of call.
type acc struct {
	dur   time.Duration
	calls int64
	first time.Time
}

// since books a call that started at t0 and ends now.
func (a *acc) since(t0 time.Time) {
	a.add(t0, time.Since(t0))
}

func (a *acc) add(start time.Time, d time.Duration) {
	if a.calls == 0 {
		a.first = start
	}
	a.dur += d
	a.calls++
}

func (a acc) plus(b acc) acc {
	if a.calls == 0 {
		return b
	}
	if b.calls > 0 && b.first.Before(a.first) {
		a.first = b.first
	}
	a.dur += b.dur
	a.calls += b.calls
	return a
}

// timedSink sits between a producer (replay, tail or generator) and the
// sink it feeds, and times every call into the sink. The producer's own
// time is its span minus these calls.
type timedSink struct {
	sink                   trace.Sink
	prefix                 string // span name prefix of the folded calls
	flow, dns, http, lease acc
	batch, flush           acc // trace.BatchSink calls
	// Sampled fill of a sharded pipeline's queues, as a share of capacity.
	depths   func() []int
	capacity int
	fill     []float64
}

// fillEvery is how many single-event sink calls pass between queue-fill
// samples; every batch call takes one.
const fillEvery = 4096

func (s *timedSink) booked(a *acc, t0 time.Time) {
	a.since(t0)
	if (s.flow.calls+s.dns.calls+s.http.calls+s.lease.calls)%fillEvery == 0 {
		s.sampleFill()
	}
}

// sampleFill records the sharded pipeline's queue fill, if it has queues.
func (s *timedSink) sampleFill() {
	if s.depths == nil {
		return
	}
	total := 0
	d := s.depths()
	for _, n := range d {
		total += n
	}
	s.fill = append(s.fill, float64(total)/float64(s.capacity*len(d)))
}

func (s *timedSink) Flow(r flow.Record) {
	t0 := time.Now()
	s.sink.Flow(r)
	s.booked(&s.flow, t0)
}

func (s *timedSink) DNS(e dnssim.Entry) {
	t0 := time.Now()
	s.sink.DNS(e)
	s.booked(&s.dns, t0)
}

func (s *timedSink) HTTPMeta(e httplog.Entry) {
	t0 := time.Now()
	s.sink.HTTPMeta(e)
	s.booked(&s.http, t0)
}

func (s *timedSink) Lease(l dhcp.Lease) {
	t0 := time.Now()
	s.sink.Lease(l)
	s.booked(&s.lease, t0)
}

// timedBatchSink keeps the trace.BatchSink fast path of a sink that has
// one, so the sharded pipeline is fed exactly as without the wrapper.
type timedBatchSink struct {
	*timedSink
	bs trace.BatchSink
}

func (s timedBatchSink) EventBatch(evs []trace.Event) {
	t0 := time.Now()
	s.bs.EventBatch(evs)
	s.batch.since(t0)
	s.sampleFill()
}

func (s timedBatchSink) Flush() {
	t0 := time.Now()
	s.bs.Flush()
	s.flush.since(t0)
}

// timed wraps sink; the result keeps sink's batch fast path when it has
// one. Folded calls are named prefix+"flow", prefix+"dns" and so on.
func timed(sink trace.Sink, prefix string) (*timedSink, trace.Sink) {
	ts := &timedSink{sink: sink, prefix: prefix}
	if bs, ok := sink.(trace.BatchSink); ok {
		return ts, timedBatchSink{timedSink: ts, bs: bs}
	}
	return ts, ts
}

// foldCore records the calls into a pipeline under the innermost span and
// resets the counts for the next producer call.
func (s *timedSink) foldCore(t *tracer) {
	t.fold(s.prefix+"flow", s.flow)
	t.fold(s.prefix+"dns", s.dns)
	t.fold(s.prefix+"http", s.http)
	t.fold(s.prefix+"lease", s.lease)
	t.fold(s.prefix+"batch", s.batch)
	t.fold(s.prefix+"flush", s.flush)
	s.flow, s.dns, s.http, s.lease, s.batch, s.flush = acc{}, acc{}, acc{}, acc{}, acc{}, acc{}
}

// all is every call into the sink, as one count.
func (s *timedSink) all() acc {
	return s.flow.plus(s.dns).plus(s.http).plus(s.lease).plus(s.batch).plus(s.flush)
}
