package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestFlightRecorderWraparound pins the ring-buffer semantics: a full ring
// overwrites oldest-first, Snapshot returns retained events in record order,
// and the drop accounting balances against the total.
func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh recorder holds %d events", len(got))
	}
	for i := 0; i < 10; i++ {
		r.Record(FlightEvent{Name: "e", Phase: PhaseInstant, TSUS: int64(i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d events, want capacity 4", len(got))
	}
	for i, e := range got {
		if want := int64(6 + i); e.TSUS != want {
			t.Errorf("event %d ts %d, want %d (oldest-first after wraparound)", i, e.TSUS, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("total %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", r.Dropped())
	}

	// Below-capacity recorder: everything retained, nothing dropped.
	small := NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		small.Record(FlightEvent{TSUS: int64(i)})
	}
	if got := small.Snapshot(); len(got) != 3 || got[0].TSUS != 0 || got[2].TSUS != 2 {
		t.Errorf("partial ring snapshot = %v", got)
	}
	if small.Dropped() != 0 {
		t.Errorf("partial ring dropped %d, want 0", small.Dropped())
	}
}

// TestFlightRecorderConcurrent exercises the ring under concurrent writers —
// run with -race in CI; the assertion is only that accounting stays sane.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(FlightEvent{Name: "c", TSUS: int64(w*per + i)})
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != writers*per {
		t.Errorf("total %d, want %d", r.Total(), writers*per)
	}
	if got := len(r.Snapshot()); got != 64 {
		t.Errorf("snapshot %d, want full capacity 64", got)
	}
	if r.Dropped() != writers*per-64 {
		t.Errorf("dropped %d, want %d", r.Dropped(), writers*per-64)
	}
}

// TestFlightRecorderGrowsOnDemand pins the ring's memory: a fresh recorder at
// the telemetry default of 8192 events holds under 64 KB, a partly filled one
// holds at most one growth step beyond its events (4097 events must not
// double the ring to 8192 slots), and a full one holds exactly its capacity
// in slots, never more.
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewFlightRecorder(8192)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held >= 64<<10 {
		t.Errorf("fresh recorder holds %d bytes, want < 64 KB", held)
	}
	const partial = 4097
	for i := 0; i < partial; i++ {
		r.Record(FlightEvent{TSUS: int64(i)})
	}
	if got := cap(r.buf); got > partial+flightGrowSlots {
		t.Errorf("ring holding %d events has %d slots, want at most %d", partial, got, partial+flightGrowSlots)
	}
	for i := partial; i <= 8192; i++ {
		r.Record(FlightEvent{TSUS: int64(i)})
	}
	if got := cap(r.buf); got != 8192 {
		t.Errorf("full ring has %d slots, want exactly its capacity 8192", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record(FlightEvent{})
	if r.Snapshot() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder must be inert")
	}
}

var updateArgsGolden = flag.Bool("update-golden", false, "rewrite testdata/args_*.golden from the current recorder")

// TestArgsWireBytes pins the /debug/flight JSON (as serve.MarshalBody renders
// it) and the WriteTrace output of a recording that exercises every way args
// arrive — span args (overwritten, HTML-special strings, floats, slices,
// bools), request IDs, instant-event maps (nil, empty, several keys) and
// imported span summaries — to bytes recorded when args were still stored as
// maps.
func TestArgsWireBytes(t *testing.T) {
	tel := New(Options{Seed: 11, Clock: fakeClock(time.Millisecond)})
	ctx := WithTelemetry(context.Background(), tel)
	rctx, root := StartSpan(WithRequestID(ctx, "rid-<&>"), "serve.route")
	cctx, child := StartSpan(rctx, "relaxation")
	Event(cctx, "relax.restart", Arg{"restart", 3}, Arg{"evals", 41}, Arg{"retries", 0}, Arg{"dropped", false},
		Arg{"potential", -1.2345678901234567}, Arg{"trajectory", []float64{3.5, 1e-9, -2e21}})
	Event(cctx, "route.post")
	Event(cctx, "route.empty", []Arg{}...)
	Event(rctx, "route.done", Arg{"wirelength_nm", 229460}, Arg{"vias", 81}, Arg{"z", "a<b&c>d"}, Arg{"iterations", 4})
	child.Arg("zeta", 1).Arg("alpha", "x").Arg("zeta", 2.5).End()
	root.Arg("bench", "OTA1-A").Arg("ok", true).End()
	_, bare := StartSpan(ctx, "bare")
	bare.End()
	tel.ImportSpans([]SpanSummary{
		{ID: 1, Parent: root.ID(), Name: "serve.route", Trace: root.TraceID(), StartUnixUS: 1700000000_100000, DurUS: 900, RequestID: "rid-<&>"},
		{ID: 2, Parent: 1, Name: "relaxation", Trace: root.TraceID(), StartUnixUS: 1700000000_100200, DurUS: 400},
		{ID: 3, Parent: 99, Name: "orphan", StartUnixUS: 1700000000_100300, DurUS: 10},
	}, "http://replica-<1>", -250)

	flight, err := json.MarshalIndent(struct {
		Events []FlightEvent `json:"events"`
	}{tel.Recorder().Snapshot()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := tel.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		file string
		got  []byte
	}{{"testdata/args_flight.golden", flight}, {"testdata/args_trace.golden", trace.Bytes()}} {
		if *updateArgsGolden {
			if err := os.WriteFile(g.file, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: bytes differ\ngot:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

// TestFlightEventSlotSize pins a ring slot to its size when args were a map
// pointer: a full ring holds capacity slots, so each byte an event grows
// costs capacity bytes of live heap in every busy process with telemetry.
func TestFlightEventSlotSize(t *testing.T) {
	type mapEvent struct {
		ID, Parent, Track uint64
		Name, Phase       string
		TSUS, DurUS       int64
		Trace, Proc       string
		Args              map[string]any
	}
	if got, want := unsafe.Sizeof(FlightEvent{}), unsafe.Sizeof(mapEvent{}); got > want {
		t.Errorf("FlightEvent is %d bytes, want at most %d", got, want)
	}
}
