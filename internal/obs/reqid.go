package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

// Request-ID propagation. A request entering the serving surface — at the
// cluster coordinator or directly at a replica daemon — is stamped with one
// opaque ID that travels the whole way down: the X-Request-ID header between
// processes, the context chain within one, span args and slog fields at every
// observation point. A hedged or failed-over request therefore shows up under
// the same ID on every replica that touched it, which is what makes a
// cross-replica trace reconstructible from the flight recorders.

// ridKey carries the request ID on the context chain.
type ridKey struct{}

// WithRequestID attaches a request ID to the context. An empty id returns ctx
// unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestID returns the context's request ID, or "" when none is attached.
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

// ridBase is a per-process random base so IDs generated by different
// processes (coordinator, replicas, tests) never collide; ridCounter
// distinguishes IDs within one process.
var (
	ridBase    = ridSeed()
	ridCounter atomic.Uint64
)

func ridSeed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible; fall back to a fixed
		// base rather than failing — IDs stay unique within the process.
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}

// NewRequestID mints a process-unique request ID: the splitmix64 finalizer
// over a random per-process base plus an atomic counter, rendered as 16 hex
// digits. IDs are for correlation only — they carry no ordering or security
// meaning.
func NewRequestID() string {
	var buf [16]byte
	return string(appendHex16(buf[:0], Mix64(ridBase+0x9e3779b97f4a7c15*ridCounter.Add(1))))
}

// FNV64a is the 64-bit FNV-1a hash — the shared content-hash primitive for
// netlist-digest request affinity (internal/cluster) and the deterministic
// Retry-After jitter (internal/serve). It must stay stable: routing affinity
// and shed-retry spreading both key on it.
func FNV64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// FNV64aString is FNV64a over the bytes of s, without allocating.
func FNV64aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bijective mixer
// used to derive independent per-(key, index) streams — rendezvous-hash
// scores, backoff jitter — from one content hash.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
