package serve

import (
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzParseHealth drives the cluster prober's /metrics decoder with
// arbitrary bodies. The contract under fuzz: never panic, reject every body
// that is not valid JSON, and accept only in-range values that survive a
// re-encode unchanged.
func FuzzParseHealth(f *testing.F) {
	f.Add([]byte(`{"analogfold_serve_queue_depth":3,"analogfold_serve_breaker_state":2}`))
	f.Add([]byte(`{"analogfold_serve_queue_depth":0,"analogfold_serve_breaker_state":0,"analogfold_build_info":{"path":"x"}}`))
	f.Add([]byte(`{"analogfold_serve_queue_depth":1.5,"analogfold_serve_breaker_state":0}`))
	f.Add([]byte(`{"analogfold_serve_queue_depth":null,"analogfold_serve_breaker_state":0}`))
	f.Add([]byte(`{"analogfold_serve_queue_depth":1,"analogfold_serve_breaker_state":3}`))
	f.Add([]byte(`{"analogfold_serve_queue_depth":1`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h, ok := ParseHealth(body)
		if !ok {
			if h != (Health{}) {
				t.Fatalf("rejected body %q yields non-zero health %+v", body, h)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("malformed body %q accepted as %+v", body, h)
		}
		if h.QueueDepth < 0 || h.Breaker < 0 || h.Breaker > 2 {
			t.Fatalf("body %q accepted out-of-range health %+v", body, h)
		}
		again, ok := ParseHealth([]byte(fmt.Sprintf(`{%q:%d,%q:%d}`,
			MetricQueueDepth, h.QueueDepth, MetricBreakerState, h.Breaker)))
		if !ok || again != h {
			t.Fatalf("health %+v from %q does not survive a re-encode: %+v ok=%v", h, body, again, ok)
		}
	})
}
