package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls on its first request: queries due during the stall
// wait behind it, and their latency must run from their due time, while
// the schedule itself keeps going.
func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Lockdown-Epoch", "3")
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	var dues []time.Duration
	for i := 0; i < 10; i++ {
		dues = append(dues, time.Duration(i)*20*time.Millisecond)
	}
	start := time.Now().Add(10 * time.Millisecond)
	samples := openLoop(srv.URL, start, dues, 1, nil, func(int) request { return request{kind: "epoch", path: "/"} },
		5*time.Second)

	if len(samples) != len(dues) {
		t.Fatalf("%d samples, want %d", len(samples), len(dues))
	}
	stallEnd := start.Add(stall)
	for i, s := range samples {
		if !s.ok() || s.epoch != 3 || s.bytes != 2 {
			t.Fatalf("sample %d: ok=%v epoch=%d bytes=%d", i, s.ok(), s.epoch, s.bytes)
		}
		if want := start.Add(dues[i]); !s.due.Equal(want) {
			t.Errorf("sample %d due %v, want %v", i, s.due.Sub(start), dues[i])
		}
		// Every query was due inside the stall, so it completed after it:
		// its latency covers the wait from its due time, not just service.
		if s.done.Before(stallEnd) {
			t.Errorf("sample %d done %v before the stall ended", i, s.done.Sub(start))
		}
		if got, min := s.latencyMS(), ms(stall-dues[i]); got < min {
			t.Errorf("sample %d latency %.1fms, want at least %.1fms (stall from its due time)", i, got, min)
		}
		// The generator handed each query off on time despite the stall.
		if late := s.lateMS(); late > 50 {
			t.Errorf("sample %d: generator ran %.1fms late", i, late)
		}
	}
}

// Failed queries and errors are misses; stop ends the schedule early.
func TestOpenLoopCountsFailuresAndStops(t *testing.T) {
	stop := make(chan struct{})
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			close(stop)
		}
		http.Error(w, "no epoch sealed yet", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, time.Hour}
	samples := openLoop(srv.URL, time.Now(), dues, 2, stop, func(int) request { return request{path: "/"} },
		time.Second)
	if len(samples) != 3 {
		t.Fatalf("%d samples, want the 3 due before stop", len(samples))
	}
	for i, s := range samples {
		if s.ok() || s.failure() == nil || s.latencyMS() != inf {
			t.Errorf("sample %d: status %d counted as ok (latency %g)", i, s.status, s.latencyMS())
		}
	}
}

func TestPoissonScheduleIsSeededAndSpansTheWindow(t *testing.T) {
	a := poissonSchedule(7, 100, 10*time.Second)
	b := poissonSchedule(7, 100, 10*time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("%d and %d arrivals, want the same count near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
