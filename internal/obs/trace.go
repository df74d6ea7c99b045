package obs

import (
	"encoding/json"
	"io"
)

// emptyTrace is what a disabled sink exports: a valid, empty Chrome trace.
const emptyTrace = `{"displayTimeUnit":"ms","traceEvents":[]}` + "\n"

// chromeEvent is one trace_event entry in the JSON Object Format that
// chrome://tracing and Perfetto load. Spans are "complete" events (ph "X",
// microsecond ts/dur); instants are ph "i" with thread scope.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"`
	Dur   *int64 `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   uint64 `json:"tid"`
	Scope string `json:"s,omitempty"`
	Args  *Args  `json:"args,omitempty"`
}

// chromeTrace is the top-level object; metadata names the tracks.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteTraceEvents renders flight-recorder events as Chrome trace_event
// JSON. Local events land on pid 1; events imported from other processes
// (Proc != "") each get their own pid, named by a process_name metadata
// event, so a merged cross-process trace renders as one timeline with one
// row group per process. Within a process, each root span (and its subtree)
// gets its own tid so concurrent method runs display as separate rows.
func WriteTraceEvents(w io.Writer, events []FlightEvent) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events))}
	pids := map[string]int{"": 1}
	var procs []string
	for _, e := range events {
		pid, ok := pids[e.Proc]
		if !ok {
			pid = 1 + len(pids)
			pids[e.Proc] = pid
			procs = append(procs, e.Proc)
		}
		ce := chromeEvent{
			Name: e.Name, Phase: e.Phase, TS: e.TSUS, PID: pid, TID: e.Track, Args: e.Args,
		}
		if e.Phase == PhaseSpan {
			dur := e.DurUS
			ce.Dur = &dur
		}
		if e.Phase == PhaseInstant {
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if len(procs) > 0 {
		// Multi-process trace: name every pid (metadata events, ph "M").
		meta := make([]chromeEvent, 0, len(procs)+1)
		meta = append(meta, chromeEvent{
			Name: "process_name", Phase: "M", PID: 1, Args: &Args{{"name", "local"}},
		})
		for _, p := range procs {
			meta = append(meta, chromeEvent{
				Name: "process_name", Phase: "M", PID: pids[p], Args: &Args{{"name", p}},
			})
		}
		out.TraceEvents = append(meta, out.TraceEvents...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
