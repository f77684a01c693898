package core

import (
	"testing"

	"repro/internal/campus"
	"repro/internal/dhcp"
	"repro/internal/dnssim"
	"repro/internal/flow"
	"repro/internal/httplog"
	"repro/internal/trace"
	"repro/internal/universe"
)

func TestShardedMatchesSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.01
	key := []byte("sharded-equivalence-key-0123456789")

	// Single pipeline.
	g1, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.RunDays(single, 20, 40); err != nil {
		t.Fatal(err)
	}
	dsSingle := single.Finalize()

	// Sharded pipeline, same key and workload.
	g2, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedPipeline(reg, Options{Key: key}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 4 {
		t.Fatalf("shards = %d", sharded.Shards())
	}
	if err := g2.RunDays(sharded, 20, 40); err != nil {
		t.Fatal(err)
	}
	dsSharded := sharded.Finalize()

	if len(dsSingle.Devices) != len(dsSharded.Devices) {
		t.Fatalf("device counts differ: single %d, sharded %d",
			len(dsSingle.Devices), len(dsSharded.Devices))
	}
	if dsSingle.Stats.FlowsProcessed != dsSharded.Stats.FlowsProcessed {
		t.Errorf("flows differ: %d vs %d", dsSingle.Stats.FlowsProcessed, dsSharded.Stats.FlowsProcessed)
	}
	if dsSingle.Stats.BytesProcessed != dsSharded.Stats.BytesProcessed {
		t.Errorf("bytes differ: %d vs %d", dsSingle.Stats.BytesProcessed, dsSharded.Stats.BytesProcessed)
	}
	if dsSingle.Stats.FlowsUnattributed != dsSharded.Stats.FlowsUnattributed {
		t.Errorf("unattributed differ: %d vs %d",
			dsSingle.Stats.FlowsUnattributed, dsSharded.Stats.FlowsUnattributed)
	}

	// Per-device equivalence: same pseudonyms, types, daily bytes.
	for _, a := range dsSingle.Devices {
		b := dsSharded.Device(a.ID)
		if b == nil {
			t.Fatalf("device %v missing from sharded dataset", a.ID)
		}
		if a.Type != b.Type || a.Geo != b.Geo || a.IsSwitch != b.IsSwitch ||
			a.Resident != b.Resident || a.PostShutdown != b.PostShutdown {
			t.Fatalf("device %v verdicts differ: %+v vs %+v", a.ID, a, b)
		}
		if a.Flows != b.Flows {
			t.Fatalf("device %v flows differ: %d vs %d", a.ID, a.Flows, b.Flows)
		}
		for day := range a.Daily {
			if a.Daily[day] != b.Daily[day] {
				t.Fatalf("device %v day %d bytes differ: %v vs %v",
					a.ID, day, a.Daily[day], b.Daily[day])
			}
		}
		for m := campus.February; m < campus.NumMonths; m++ {
			if a.Social[m] != b.Social[m] {
				t.Fatalf("device %v month %v social differ", a.ID, m)
			}
			if a.Steam[m] != b.Steam[m] {
				t.Fatalf("device %v month %v steam differ", a.ID, m)
			}
		}
	}
}

func TestShardedSingleShardDegenerate(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Shards() != 1 {
		t.Fatalf("shards = %d", sp.Shards())
	}
	ds := sp.Finalize()
	if len(ds.Devices) != 0 {
		t.Errorf("empty run produced %d devices", len(ds.Devices))
	}
}

func BenchmarkShardedPipelineThroughput(b *testing.B) {
	reg, err := universe.New()
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.02
	gen, err := trace.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{Key: []byte("sharded-bench-key-0123456789abcdef")}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := campus.Day(i % campus.NumDays)
		if err := gen.RunDays(sp, day, day+1); err != nil {
			b.Fatal(err)
		}
	}
}

// eventLog is a trace.Sink that records a generated stream for replay.
type eventLog struct{ events []trace.Event }

func (l *eventLog) Flow(r flow.Record) {
	l.events = append(l.events, trace.Event{Kind: trace.EventFlow, Flow: r})
}
func (l *eventLog) DNS(e dnssim.Entry) {
	l.events = append(l.events, trace.Event{Kind: trace.EventDNS, DNS: e})
}
func (l *eventLog) HTTPMeta(e httplog.Entry) {
	l.events = append(l.events, trace.Event{Kind: trace.EventHTTP, HTTP: e})
}
func (l *eventLog) Lease(ls dhcp.Lease) {
	l.events = append(l.events, trace.Event{Kind: trace.EventLease, Lease: ls})
}

// TestShardedDeviceIDDuringIngest calls DeviceID from the ingest goroutine
// while shard workers are still applying batches — what the truth rebuild
// in cmd/lockdown does before Finalize. The recorded stream is fed in
// faster than the workers apply it, so batches are in flight when the
// pseudonyms are asked for; under -race the test fails if DeviceID
// touches shard-owned state. In every mode the pseudonyms must match a
// single pipeline's.
func TestShardedDeviceIDDuringIngest(t *testing.T) {
	reg, err := universe.New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig()
	cfg.Scale = 0.005
	gen, err := trace.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventLog{}
	if err := gen.RunDays(rec, 20, 22); err != nil {
		t.Fatal(err)
	}
	key := []byte("sharded-deviceid-key-0123456789ab")
	single, err := NewPipeline(reg, Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedPipeline(reg, Options{Key: key}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp.EventBatch(rec.events)
	sp.Flush()
	for _, d := range gen.Devices() {
		if got, want := sp.DeviceID(d.MAC), single.DeviceID(d.MAC); got != want {
			t.Fatalf("DeviceID(%v) = %v, want %v", d.MAC, got, want)
		}
	}
	if ds := sp.Finalize(); ds.Stats.FlowsProcessed == 0 {
		t.Fatal("degenerate run: no flows")
	}
}
