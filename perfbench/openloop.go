package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// request is one scheduled query.
type request struct {
	kind   string // endpoint class, for per-endpoint latency
	path   string
	pinned bool // ?epoch=n: the response names a historical epoch, not the current one
}

// sample is one query's outcome. Its latency runs from the due time, not
// the send time, so the wait a stalled server imposes on the requests
// queued behind it is counted.
type sample struct {
	request
	due    time.Time // when the schedule called for it
	queued time.Time // when the generator handed it to a connection
	done   time.Time // when the response body was read, or the request failed
	status int
	epoch  int // X-Lockdown-Epoch, 0 when absent
	bytes  int64
	err    error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latencyMS is the due-to-done time; a failed query is a miss (+Inf).
func (s sample) latencyMS() float64 {
	if !s.ok() {
		return inf
	}
	return ms(s.done.Sub(s.due))
}

// lateMS is how late the generator itself ran: due to hand-off.
func (s sample) lateMS() float64 { return ms(s.queued.Sub(s.due)) }

func (s sample) failure() error {
	if s.err != nil {
		return fmt.Errorf("%s: %w", s.path, s.err)
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", s.path, s.status)
	}
	return nil
}

// poissonSchedule is an open-loop arrival schedule of independent users:
// due offsets from the window's start with exponential gaps of mean
// 1/rate, fixed by the seed, covering span.
func poissonSchedule(seed int64, rate float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed)) // a stream apart from the query mix's
	var dues []time.Duration
	for at := time.Duration(0); at < span; at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		dues = append(dues, at)
	}
	return dues
}

// openLoop sends queries on a fixed schedule, query i due at
// start + dues[i], whatever the server's speed, over conns keep-alive
// connections, until stop closes or the schedule ends. A query due while
// every connection is busy waits in the queue. It returns every sent
// query's sample in due order.
func openLoop(base string, start time.Time, dues []time.Duration, conns int,
	stop <-chan struct{}, next func(i int) request, timeout time.Duration) []sample {
	n := len(dues)
	type job struct {
		i      int
		due    time.Time
		queued time.Time
		req    request
	}
	// Sized to every query the window can schedule, so that a stalled
	// server never holds up the schedule itself.
	jobs := make(chan job, n)
	out := make([]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		client := &http.Client{Timeout: timeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for j := range jobs {
				s := fetch(client, base, j.req)
				s.due, s.queued = j.due, j.queued
				out[j.i] = s
			}
		}()
	}

	sent := 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
schedule:
	for i := 0; i < n; i++ {
		due := start.Add(dues[i])
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				break schedule
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				break schedule
			default:
			}
		}
		jobs <- job{i: i, due: due, queued: time.Now(), req: next(i)}
		sent++
	}
	close(jobs)
	wg.Wait()
	return out[:sent]
}

// fetch performs one GET and reads the whole body.
func fetch(client *http.Client, base string, req request) sample {
	s := sample{request: req}
	resp, err := client.Get(base + req.path)
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	s.bytes, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status, s.err = resp.StatusCode, err
	s.epoch, _ = strconv.Atoi(resp.Header.Get("X-Lockdown-Epoch")) // absent on errors: 0
	return s
}
