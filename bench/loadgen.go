package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogfold/internal/obs"
)

// Streams keep the inputs drawn from one -seed independent of each other.
const (
	streamFlow = iota + 1
	streamOpen
	streamClosed
	streamRepeat
	streamProbe
)

// warmSeed is the seed of every untimed warm-up operation. Timed seeds lie
// in [2^60, 2^61), so a warm-up never shares work or a cache key with them.
const warmSeed = 7

// opSeed returns the i-th request or flow seed of a stream: distinct for
// distinct (seed, stream, i) with overwhelming probability, and scattered so
// that neighbouring operations do not share relaxation restart seeds. Index
// -1 seeds the stream's own generator (arrival schedule, Zipf draws).
// streamRepeat has only that generator: the hit probe repeats
// streamOpen's seeds.
func opSeed(seed int64, stream, i int) int64 {
	z := obs.Mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i))
	return int64(z>>4) | 1<<60
}

// jitteredSchedule returns n ascending send offsets in [0, span): the span
// is cut into n equal slots and each slot gets one arrival at a uniform
// random point in it. Send times are random and the offered load is the
// same in every run, but no more than two arrivals fall within one slot's
// width. A Poisson schedule of the same rate clumps differently on every
// seed; with the dozen or two arrivals a window holds, that moved the median
// latency by more than the bound between runs.
func jitteredSchedule(seed int64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration((float64(i) + rng.Float64()) * float64(span) / float64(n))
	}
	return at
}

// zipfSeq draws request seeds Zipf-distributed over a fixed set of values.
// The draw order is a pure function of the seed; callers share it under mu.
type zipfSeq struct {
	mu     sync.Mutex
	z      *rand.Zipf
	values []int64
}

// newZipfSeq draws values[k] with P(k) ∝ (1+k)^-s.
func newZipfSeq(seed int64, s float64, values []int64) *zipfSeq {
	rng := rand.New(rand.NewSource(seed))
	return &zipfSeq{z: rand.NewZipf(rng, s, 1, uint64(len(values)-1)), values: values}
}

func (q *zipfSeq) next() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.values[q.z.Uint64()]
}

// openLoop sends op(i) at start+at[i] whether or not earlier calls have
// returned, and passes each call its due time so latency is counted from
// when the request should have left, not from when it did. It returns once
// every call has finished, with the generator's worst lateness.
func openLoop(at []time.Duration, op func(i int, due time.Time)) (late time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range at {
		due := start.Add(at[i])
		time.Sleep(time.Until(due))
		if l := time.Since(due); l > late {
			late = l
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op(i, due)
		}(i)
	}
	wg.Wait()
	return late
}

// closedLoop runs callers goroutines that each start their next operation as
// soon as the previous one returns, until op reports there is no more work.
// It returns once all callers have finished.
func closedLoop(callers int, op func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op() {
			}
		}()
	}
	wg.Wait()
}

// sequence hands operation indices to closed-loop callers until the
// deadline. The first index is always handed out, so a run has at least one
// operation.
type sequence struct {
	next     atomic.Int64
	deadline time.Time
}

func (s *sequence) take() (int, bool) {
	i := int(s.next.Add(1) - 1)
	return i, i == 0 || time.Now().Before(s.deadline)
}

// parseProm reads Prometheus text exposition into sample name → value
// (labelled samples keep their labels in the name).
func parseProm(rd io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(rd)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// reply is one answered request as the client saw it.
type reply struct {
	status  int
	latency time.Duration // due time → last body byte
	wait    time.Duration // due time → request fully written
	stages  [obs.NumStages]time.Duration
	body    []byte
	err     error
}

// stageSum is the server-attributed part of the latency.
func (r reply) stageSum() time.Duration {
	var s time.Duration
	for _, d := range r.stages {
		s += d
	}
	return s
}

// post sends one JSON request and reads the whole answer. due is when the
// request was meant to leave; both latency and wait are counted from it.
func post(ctx context.Context, c *http.Client, url, body string, due time.Time) reply {
	var wrote atomic.Int64
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(due)}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = io.Copy(&buf, resp.Body)
	r := reply{status: resp.StatusCode, latency: time.Since(due), body: buf.Bytes(), err: err}
	if w := wrote.Load(); w != 0 {
		r.wait = time.Unix(0, w).Sub(due)
	}
	if r.err == nil {
		r.stages, r.err = parseTiming(resp.Header.Get("X-Analogfold-Timing"))
	}
	return r
}

// parseTiming reads an X-Analogfold-Timing value, the Server-Timing syntax
// obs.StageBreakdown.TimingHeader renders ("queue;dur=0.312, relax;dur=120.504",
// milliseconds with microsecond precision), back into per-stage durations.
func parseTiming(h string) ([obs.NumStages]time.Duration, error) {
	var out [obs.NumStages]time.Duration
	if strings.TrimSpace(h) == "" {
		return out, nil
	}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			return out, fmt.Errorf("timing header: malformed entry %q", part)
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil || ms < 0 || math.IsInf(ms, 0) {
			return out, fmt.Errorf("timing header: bad duration in %q", part)
		}
		id := stageID(name)
		if id < 0 {
			return out, fmt.Errorf("timing header: unknown stage %q", name)
		}
		out[id] += time.Duration(math.Round(ms*1e3)) * time.Microsecond
	}
	return out, nil
}

func stageID(name string) obs.StageID {
	for id := obs.StageID(0); id < obs.NumStages; id++ {
		if obs.StageName(id) == name {
			return id
		}
	}
	return -1
}
