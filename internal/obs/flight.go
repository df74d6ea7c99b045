package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"sync"
)

// Event phases, mirroring the Chrome trace_event vocabulary: a completed
// span ("X") or an instant event ("i").
const (
	PhaseSpan    = "X"
	PhaseInstant = "i"
)

// FlightEvent is one flight-recorder entry. The JSON field names are the
// /debug/flight wire contract.
type FlightEvent struct {
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Track  uint64 `json:"track,omitempty"`
	Name   string `json:"name"`
	Phase  string `json:"ph"`
	TSUS   int64  `json:"ts_us"`
	DurUS  int64  `json:"dur_us,omitempty"`
	Trace  string `json:"trace,omitempty"` // 32-hex distributed trace ID
	Proc   string `json:"proc,omitempty"`  // originating process ("" = this one)
	Args   *Args  `json:"args,omitempty"`
}

// Arg is one key/value of an event's arguments.
type Arg struct {
	Key   string
	Value any
}

// Args are an event's arguments as pairs sorted by key, with distinct keys.
// A *Args marshals to the JSON object of the equivalent map[string]any, byte
// for byte, in well under half a small map's bytes: the ring keeps every
// retained event's args, so their size is most of what a busy recorder holds.
// Events refer to them by pointer, which keeps a ring slot as small as the
// map pointer it replaced: a full ring holds capacity slots.
type Args []Arg

// sortedArgs sorts pairs with distinct keys by key, in place, and returns
// them as Args; nil when there are none.
func sortedArgs(pairs []Arg) *Args {
	if len(pairs) == 0 {
		return nil
	}
	a := Args(pairs)
	slices.SortFunc(a, func(x, y Arg) int { return strings.Compare(x.Key, y.Key) })
	return &a
}

// argsOf converts a map to Args; nil for an empty map.
func argsOf(m map[string]any) *Args {
	pairs := make([]Arg, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, Arg{k, v})
	}
	return sortedArgs(pairs)
}

// search returns where key is or would be inserted, and whether it is there.
func (a Args) search(key string) (int, bool) {
	return slices.BinarySearchFunc(a, key, func(x Arg, k string) int { return strings.Compare(x.Key, k) })
}

// Get returns key's value, or nil when there is none (or a is nil).
func (a *Args) Get(key string) any {
	if a == nil {
		return nil
	}
	if i, ok := a.search(key); ok {
		return (*a)[i].Value
	}
	return nil
}

// with sets key to value, replacing an existing value, and returns a, or new
// args when a is nil.
func (a *Args) with(key string, value any) *Args {
	if a == nil {
		return &Args{{key, value}}
	}
	if i, ok := a.search(key); ok {
		(*a)[i].Value = value
	} else {
		*a = slices.Insert(*a, i, Arg{key, value})
	}
	return a
}

// MarshalJSON renders the args as the map they stand for. HTML escaping is
// left to the enclosing encoder, which applies its own setting to a
// marshaler's output, as it would to a map's strings.
func (a *Args) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, len(*a))
	for _, kv := range *a {
		m[kv.Key] = kv.Value
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// UnmarshalJSON reads a JSON object into sorted args.
func (a *Args) UnmarshalJSON(b []byte) error {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*a = nil
	if l := argsOf(m); l != nil {
		*a = *l
	}
	return nil
}

// FlightRecorder is a bounded in-memory ring of the most recent telemetry
// events — the always-on "what just happened" buffer served at /debug/flight
// and dumped by -trace-out. When full, the oldest events are overwritten;
// Dropped counts how many have been lost to wraparound. The ring starts small
// and grows by a fixed step as events arrive, up to exactly its capacity, so
// the slots it holds track the events it has recorded: a process that records
// little holds little, and one more event never doubles the ring.
type FlightRecorder struct {
	mu       sync.Mutex
	buf      []FlightEvent
	capacity int
	total    uint64 // events ever recorded
}

// flightInitialSlots is the ring's first allocation, flightGrowSlots what
// each growth adds.
const (
	flightInitialSlots = 64
	flightGrowSlots    = 256
)

// NewFlightRecorder builds a recorder holding at most capacity events
// (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	capacity = max(capacity, 1)
	return &FlightRecorder{buf: make([]FlightEvent, 0, min(capacity, flightInitialSlots)), capacity: capacity}
}

// Record appends an event, overwriting the oldest once the ring is full.
// Safe on a nil recorder (the disabled sink).
func (r *FlightRecorder) Record(e FlightEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	switch {
	case len(r.buf) < cap(r.buf):
		r.buf = append(r.buf, e)
	case len(r.buf) < r.capacity:
		// append's own growth would double the ring and could overshoot
		// the capacity.
		grown := make([]FlightEvent, len(r.buf), min(len(r.buf)+flightGrowSlots, r.capacity))
		copy(grown, r.buf)
		r.buf = append(grown, e)
	default:
		r.buf[r.total%uint64(r.capacity)] = e
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained events oldest-first.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FlightEvent, 0, len(r.buf))
	if len(r.buf) < r.capacity {
		return append(out, r.buf...)
	}
	// Full ring: the oldest entry sits at the next write position.
	start := int(r.total % uint64(r.capacity))
	out = append(out, r.buf[start:]...)
	out = append(out, r.buf[:start]...)
	return out
}

// Total is the number of events ever recorded; Dropped how many of those the
// ring has already overwritten.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns the count of events lost to wraparound.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.buf))
}
