package breaker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// manualClock is a settable test clock.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Unix(0, 0)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testConfig(clk *manualClock) Config {
	return Config{
		Window:              8,
		TripRate:            0.5,
		MinSamples:          4,
		ConsecutiveFailures: 3,
		OpenTimeout:         100 * time.Millisecond,
		HalfOpenProbes:      1,
		CloseAfter:          2,
		Clock:               clk.Now,
	}
}

// settle admits one call and observes the outcome, failing the test when
// admission is refused.
func settle(t *testing.T, b *Breaker, lat time.Duration, class Class) {
	t.Helper()
	c, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow: unexpected rejection in state %v: %v", b.State(), err)
	}
	c.Observe(lat, class)
}

func TestConsecutiveFailuresTrip(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	settle(t, b, time.Millisecond, ClassSuccess)
	for i := 0; i < 3; i++ {
		if got := b.State(); got != StateClosed {
			t.Fatalf("state before failure %d = %v, want closed", i, got)
		}
		settle(t, b, time.Millisecond, ClassFailure)
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open: err = %v, want ErrOpen", err)
	}
	snap := b.Snapshot()
	if snap.Trips != 1 || snap.Rejections != 1 {
		t.Fatalf("snapshot = %+v, want Trips=1 Rejections=1", snap)
	}
}

func TestWindowRateTrip(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	// Alternate success/failure: consec never reaches 3, but the window
	// fill reaches MinSamples=4 at 50% failures >= TripRate.
	settle(t, b, time.Millisecond, ClassSuccess)
	settle(t, b, time.Millisecond, ClassFailure)
	settle(t, b, time.Millisecond, ClassSuccess)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state with 3 samples = %v, want closed", got)
	}
	settle(t, b, time.Millisecond, ClassFailure)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state at 2/4 failures = %v, want open", got)
	}
}

func TestWindowSlides(t *testing.T) {
	clk := newManualClock()
	cfg := testConfig(clk)
	cfg.ConsecutiveFailures = 100 // only the window can trip
	b := New("s", cfg)
	// Fill the 8-slot window with successes, then old failures must age out:
	// 3 failures in a full window of 8 = 37.5% < 50%, stays closed.
	for i := 0; i < 8; i++ {
		settle(t, b, time.Millisecond, ClassSuccess)
	}
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state at 3/8 failures = %v, want closed", got)
	}
	settle(t, b, time.Millisecond, ClassFailure)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state at 4/8 failures = %v, want open", got)
	}
}

func TestHalfOpenProbeAndClose(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	// Not yet aged out.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow before OpenTimeout: err = %v, want ErrOpen", err)
	}
	clk.Advance(100 * time.Millisecond)
	// First admitted call is a probe; a second concurrent one is rejected.
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second probe Allow: err = %v, want ErrOpen (probes busy)", err)
	}
	probe.Observe(time.Millisecond, ClassSuccess)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", got)
	}
	settle(t, b, time.Millisecond, ClassSuccess)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after CloseAfter probe successes = %v, want closed", got)
	}
	// The window restarts clean: one failure must not re-trip.
	settle(t, b, time.Millisecond, ClassFailure)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after close + 1 failure = %v, want closed", got)
	}
}

func TestHalfOpenProbeFailureReopens(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	clk.Advance(100 * time.Millisecond)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	probe.Observe(time.Millisecond, ClassFailure)
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Open period restarts from the probe failure.
	clk.Advance(50 * time.Millisecond)
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow 50ms after reopen: err = %v, want ErrOpen", err)
	}
	snap := b.Snapshot()
	if snap.Trips != 2 || snap.ProbeFailures != 1 {
		t.Fatalf("snapshot = %+v, want Trips=2 ProbeFailures=1", snap)
	}
}

func TestNeutralOutcomesDoNotTrip(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	for i := 0; i < 20; i++ {
		settle(t, b, time.Millisecond, ClassNeutral)
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 20 neutrals = %v, want closed", got)
	}
	snap := b.Snapshot()
	if snap.Neutrals != 20 || snap.Failures != 0 || snap.WindowFailRate != 0 {
		t.Fatalf("snapshot = %+v, want 20 neutrals, no failures", snap)
	}
	if h := b.Health(); h != 1 {
		t.Fatalf("health after neutrals only = %v, want 1 (no evidence)", h)
	}
	// A neutral probe must release the probe slot without closing/reopening.
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	clk.Advance(100 * time.Millisecond)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	probe.Observe(0, ClassNeutral)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after neutral probe = %v, want half-open", got)
	}
	if _, err := b.Allow(); err != nil {
		t.Fatalf("probe slot not released after neutral observe: %v", err)
	}
}

func TestObserveIdempotentAndNilSafe(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	c, err := b.Allow()
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(time.Millisecond, ClassFailure)
	c.Observe(time.Millisecond, ClassFailure) // double-settle: no-op
	c.Observe(time.Millisecond, ClassSuccess)
	snap := b.Snapshot()
	if snap.Failures != 1 || snap.Successes != 0 {
		t.Fatalf("snapshot = %+v, want exactly 1 failure", snap)
	}
	var nilCall *Call
	nilCall.Observe(time.Millisecond, ClassSuccess) // must not panic
}

func TestHealthDegradesWithFailures(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	settle(t, b, time.Millisecond, ClassSuccess)
	healthy := b.Health()
	if healthy != 1 {
		t.Fatalf("health after one success = %v, want 1", healthy)
	}
	settle(t, b, time.Millisecond, ClassFailure)
	settle(t, b, time.Millisecond, ClassFailure)
	if h := b.Health(); h >= healthy {
		t.Fatalf("health after failures = %v, want < %v", h, healthy)
	}
}

func TestHealthPenalizesLatencyRegression(t *testing.T) {
	clk := newManualClock()
	cfg := testConfig(clk)
	cfg.ConsecutiveFailures = 1000
	cfg.TripRate = 1.1 // never trip; isolate the latency signal
	b := New("s", cfg)
	for i := 0; i < 50; i++ {
		settle(t, b, time.Millisecond, ClassSuccess)
	}
	fast := b.Health()
	for i := 0; i < 10; i++ {
		settle(t, b, 100*time.Millisecond, ClassSuccess)
	}
	slow := b.Health()
	if slow >= fast {
		t.Fatalf("health after latency regression = %v, want < %v", slow, fast)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateClosed:   "closed",
		StateOpen:     "open",
		StateHalfOpen: "half-open",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestDefaultsResolved(t *testing.T) {
	b := New("s", Config{})
	if b.cfg.Window != 16 || b.cfg.TripRate != 0.5 || b.cfg.MinSamples != 8 ||
		b.cfg.ConsecutiveFailures != 5 || b.cfg.OpenTimeout != 500*time.Millisecond ||
		b.cfg.HalfOpenProbes != 1 || b.cfg.CloseAfter != 2 || b.cfg.Alpha != 0.2 ||
		b.cfg.Clock == nil {
		t.Fatalf("defaults not resolved: %+v", b.cfg)
	}
}

// TestConcurrentUse hammers the breaker from many goroutines under -race.
func TestConcurrentUse(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, err := b.Allow()
				if err != nil {
					clk.Advance(time.Millisecond)
					continue
				}
				class := ClassSuccess
				if (g+i)%3 == 0 {
					class = ClassFailure
				}
				c.Observe(time.Duration(i%5)*time.Millisecond, class)
				_ = b.Health()
				_ = b.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := b.Snapshot()
	if snap.Successes+snap.Failures+snap.Rejections == 0 {
		t.Fatal("no outcomes recorded")
	}
}

func TestErrOpenWrapping(t *testing.T) {
	clk := newManualClock()
	b := New("db", testConfig(clk))
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	_, err := b.Allow()
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want wraps ErrOpen", err)
	}
	if want := fmt.Sprintf("breaker %s", "db"); err == nil || len(err.Error()) == 0 {
		t.Fatalf("error should carry the source name %q: %v", want, err)
	}
}

// TestHalfOpenProbeRacesRestart models a server restart racing the
// half-open transition, the scenario the chaos harness drives: the circuit
// opens while the backend is down, the backend comes back right as
// OpenTimeout elapses, and a stampede of concurrent queries arrives.
// Exactly one query per probe slot may reach the backend; every other
// racer must be rejected with ErrOpen, and the winning probes' successes
// close the circuit without ever exceeding HalfOpenProbes in flight.
func TestHalfOpenProbeRacesRestart(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk)) // HalfOpenProbes 1, CloseAfter 2
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	before := b.Snapshot()
	clk.Advance(100 * time.Millisecond) // backend restarts as the circuit ages out

	const racers = 16
	var (
		wg       sync.WaitGroup
		admitted = make(chan *Call, racers)
		rejected int64
		mu       sync.Mutex
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := b.Allow()
			if err != nil {
				if !errors.Is(err, ErrOpen) {
					t.Errorf("racer rejected with %v, want ErrOpen", err)
				}
				mu.Lock()
				rejected++
				mu.Unlock()
				return
			}
			admitted <- c
		}()
	}
	wg.Wait()
	close(admitted)

	var calls []*Call
	for c := range admitted {
		calls = append(calls, c)
	}
	// One probe slot: exactly one racer reached the (restarted) backend.
	if len(calls) != 1 {
		t.Fatalf("%d racers admitted concurrently, want 1 (HalfOpenProbes)", len(calls))
	}
	if int64(len(calls))+rejected != racers {
		t.Fatalf("admitted %d + rejected %d != %d racers", len(calls), rejected, racers)
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}

	// The restarted backend answers the probe; the slot frees and the next
	// probe closes the circuit.
	calls[0].Observe(time.Millisecond, ClassSuccess)
	settle(t, b, time.Millisecond, ClassSuccess)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after probe successes = %v, want closed", got)
	}

	snap := b.Snapshot()
	if got := snap.Probes - before.Probes; got != 2 {
		t.Errorf("probes = %d, want 2 (the racer winner and the closer)", got)
	}
	if snap.ProbeFailures != before.ProbeFailures {
		t.Errorf("probe failures moved: %d -> %d", before.ProbeFailures, snap.ProbeFailures)
	}
	if got := snap.Rejections - before.Rejections; got != uint64(rejected) {
		t.Errorf("rejections counter moved by %d, want %d", got, rejected)
	}
}

// TestHalfOpenProbeFailureMidRestart: the probe fires while the backend is
// still mid-restart and fails — the circuit reopens for a full OpenTimeout
// (racing queries stay rejected), and only the next aged-out probe, now
// against the healthy backend, closes it.
func TestHalfOpenProbeFailureMidRestart(t *testing.T) {
	clk := newManualClock()
	b := New("s", testConfig(clk))
	for i := 0; i < 3; i++ {
		settle(t, b, time.Millisecond, ClassFailure)
	}
	clk.Advance(100 * time.Millisecond)

	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe Allow: %v", err)
	}
	probe.Observe(time.Millisecond, ClassFailure) // backend not up yet
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open (reopened)", got)
	}
	// Reopening restarts the OpenTimeout clock: a query halfway through
	// the window must still be rejected.
	clk.Advance(50 * time.Millisecond)
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow mid-reopen: err = %v, want ErrOpen", err)
	}
	clk.Advance(50 * time.Millisecond)
	settle(t, b, time.Millisecond, ClassSuccess)
	settle(t, b, time.Millisecond, ClassSuccess)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed after recovery probes", got)
	}
	snap := b.Snapshot()
	if snap.ProbeFailures == 0 {
		t.Error("the failed restart probe was not counted")
	}
	if snap.Trips < 2 {
		t.Errorf("trips = %d, want at least 2 (initial trip + reopen)", snap.Trips)
	}
}
