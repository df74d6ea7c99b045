package serve

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives the breaker's time seam.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsOnConsecutiveFaults(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.record(true)
	}
	if st, _, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after 2 faults = %s, want closed", st)
	}
	b.allow()
	b.record(true) // third consecutive fault
	if st, _, trips := b.snapshot(); st != breakerOpen || trips != 1 {
		t.Fatalf("state after 3 faults = %s trips=%d, want open/1", st, trips)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.allow()
	b.record(true)
	b.allow()
	b.record(true)
	b.allow()
	b.record(false) // success clears the streak
	b.allow()
	b.record(true)
	b.allow()
	b.record(true)
	if st, n, _ := b.snapshot(); st != breakerClosed || n != 2 {
		t.Fatalf("state=%s consecutive=%d, want closed/2", st, n)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.allow()
	b.record(true) // trip
	if b.allow() {
		t.Fatal("admitted during cooldown")
	}
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	// Exactly one probe at a time.
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.record(false) // probe succeeds → closed
	if st, _, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after good probe = %s, want closed", st)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused request after recovery")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.allow()
	b.record(true)
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	b.record(true) // probe fails → open again, fresh cooldown
	if st, _, trips := b.snapshot(); st != breakerOpen || trips != 2 {
		t.Fatalf("state=%s trips=%d, want open/2", st, trips)
	}
	if b.allow() {
		t.Fatal("admitted right after failed probe")
	}
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("no new probe after second cooldown")
	}
}

// TestBreakerHalfOpenConcurrentProbes: when the cooldown elapses and a
// convoy of requests arrives at once, exactly one is admitted as the
// half-open probe. The losers must be refused — served from the ladder, not
// piled onto a model that just proved itself faulty — and the breaker must
// keep admitting exactly one probe per verdict cycle, never more.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.allow()
	b.record(true) // trip
	clk.advance(2 * time.Minute)

	const clients = 32
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow() {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", admitted)
	}
	if st, _, _ := b.snapshot(); st != breakerHalfOpen {
		t.Fatalf("state = %s with probe in flight, want half-open", st)
	}

	// While the probe is in flight, later arrivals are still refused.
	if b.allow() {
		t.Fatal("late request admitted alongside the in-flight probe")
	}

	// Probe fails → open again; the losers' refusals must not have consumed
	// anything: after another cooldown, exactly one new probe is admitted.
	b.record(true)
	if st, _, trips := b.snapshot(); st != breakerOpen || trips != 2 {
		t.Fatalf("state=%s trips=%d after failed probe, want open/2", st, trips)
	}
	clk.advance(2 * time.Minute)
	admitted = 0
	var wg2 sync.WaitGroup
	start2 := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			<-start2
			if b.allow() {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	close(start2)
	wg2.Wait()
	if admitted != 1 {
		t.Fatalf("second half-open cycle admitted %d probes, want exactly 1", admitted)
	}
	b.record(false)
	if st, _, _ := b.snapshot(); st != breakerClosed {
		t.Fatalf("state after good probe = %s, want closed", st)
	}
}

func TestBreakerAbortedProbeFreesSlot(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.allow()
	b.record(true)
	clk.advance(2 * time.Minute)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	// Probe canceled before reaching the model: without abortProbe the
	// half-open slot would leak and the breaker could never recover.
	b.abortProbe()
	if !b.allow() {
		t.Fatal("aborted probe did not free the half-open slot")
	}
}
