package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// A synthetic timeline: epochs 5, 6 and 7 become sealable at 0, 100 and
// 200 ms; epoch 8 at 300 ms is never served.
func TestSealLagsOnSyntheticTimeline(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	visible := []time.Time{at(0), at(100), at(200), at(300)}
	obs := []observation{ // deliberately out of order
		{at(260), 7},
		{at(10), 4},  // still the previous epoch
		{at(30), 5},  // epoch 5 served 30 ms after its day landed
		{at(120), 5}, // day 6 landed, still epoch 5
		{at(150), 7}, // a later epoch also counts as serving 6, and is not yet 7's moment
		{at(199), 7}, // before epoch 7's input landed: not a measurement of it
		{at(400), 7}, // epoch 8 never appears
	}
	lags := sealLags(5, visible, obs)
	want := []float64{30, 50, 60, math.Inf(1)}
	if len(lags) != len(want) {
		t.Fatalf("lags = %v, want %v", lags, want)
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("epoch %d lag = %g ms, want %g", 5+i, lags[i], want[i])
		}
	}
	if m := median(lags); m != 55 {
		t.Errorf("median lag = %g, want 55", m)
	}
}

func TestSealLagWithoutResponsesIsAMiss(t *testing.T) {
	lags := sealLags(1, []time.Time{time.Now()}, nil)
	if !math.IsInf(lags[0], 1) {
		t.Fatalf("lag = %g, want a miss", lags[0])
	}
}

// The daemon's status output is copied through unchanged, and each epoch
// publication line becomes an observation; the final line closes complete.
func TestReadLogRecordsPublications(t *testing.T) {
	log := "lockdownd: epoch 1 sealed (2020-02-01): 10 flows, 2 devices (day: 10 flows, 2 touched)\n" +
		"lockdownd: something else about epoch 9\n" +
		"lockdownd: epoch 2 sealed (2020-02-02): 20 flows, 3 devices (day: 10 flows, 1 touched)\n" +
		"lockdownd: dataset complete after 3 epochs; serving until signal\n"
	d := &daemon{complete: make(chan struct{})}
	var copied strings.Builder
	d.readLog(strings.NewReader(log), &copied)
	if copied.String() != log {
		t.Errorf("copied %q, want the log unchanged", copied.String())
	}
	var epochs []int
	for _, o := range d.published() {
		epochs = append(epochs, o.epoch)
	}
	if fmt.Sprint(epochs) != "[1 2 3]" {
		t.Errorf("published epochs %v, want [1 2 3]", epochs)
	}
	if d.latest.Load() != 3 {
		t.Errorf("latest = %d, want 3", d.latest.Load())
	}
	select {
	case <-d.complete:
	default:
		t.Error("final line did not close complete")
	}
}
