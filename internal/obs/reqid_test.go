package obs

import (
	"context"
	"testing"
	"time"
)

func TestRequestIDContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID on bare context = %q, want empty", got)
	}
	ctx = WithRequestID(ctx, "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Fatalf("RequestID = %q, want abc123", got)
	}
	// Empty attach is a no-op, not an overwrite.
	if got := RequestID(WithRequestID(ctx, "")); got != "abc123" {
		t.Fatalf("empty WithRequestID clobbered the ID: %q", got)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool, 1024)
	for i := 0; i < 1024; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("NewRequestID() = %q, want 16 hex digits", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("NewRequestID() = %q contains non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestSpanCarriesRequestID(t *testing.T) {
	clk := time.Unix(100, 0)
	tel := New(Options{Seed: 7, Clock: func() time.Time { return clk }})
	ctx := WithRequestID(WithTelemetry(context.Background(), tel), "rid-42")
	_, span := StartSpan(ctx, "test.span")
	span.End()
	events := tel.Recorder().Snapshot()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	if got := events[0].Args.Get("request_id"); got != "rid-42" {
		t.Fatalf("span request_id arg = %v, want rid-42", got)
	}

	// Without an ID in the context, no args are fabricated.
	_, span = StartSpan(WithTelemetry(context.Background(), tel), "test.bare")
	span.End()
	events = tel.Recorder().Snapshot()
	if args := events[len(events)-1].Args; args != nil {
		t.Fatalf("bare span grew args %v, want none", args)
	}
}

func TestFNV64aStable(t *testing.T) {
	// FNV-1a reference vectors: routing affinity and Retry-After jitter key
	// on these exact values, so they are pinned.
	cases := map[string]uint64{
		"":       14695981039346656037,
		"a":      0xaf63dc4c8601ec8c,
		"OTA1-A": FNV64a([]byte("OTA1-A")),
	}
	for s, want := range cases {
		if got := FNV64aString(s); got != want {
			t.Errorf("FNV64aString(%q) = %#x, want %#x", s, got, want)
		}
		if got := FNV64a([]byte(s)); got != want {
			t.Errorf("FNV64a(%q) = %#x, want %#x", s, got, want)
		}
	}
	if FNV64aString("OTA1-A") == FNV64aString("OTA2-A") {
		t.Error("distinct benches hash identically")
	}
}
