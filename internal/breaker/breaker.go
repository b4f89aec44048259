// Package breaker implements per-source admission control for the QPIAD
// mediator. QPIAD's efficiency argument (Section 2 of the paper) treats
// every query posed to an autonomous source as a cost; PR 1's retry layer
// bounds the cost of one flaky call, but a source that is *down* still
// receives the full retry schedule from every rewrite of every query. The
// breaker turns per-call resilience into system-level admission control:
//
//   - a three-state circuit breaker: Closed (normal service, outcomes fill
//     a sliding window) → Open (tripped on an error-rate or
//     consecutive-failure threshold; queries are rejected without touching
//     the source) → HalfOpen (after OpenTimeout, a bounded number of probe
//     queries test the source; success closes the circuit, failure reopens
//     it);
//   - an EWMA health score over latency and error observations, fed by
//     every accepted attempt's outcome — the signal behind GET /healthz.
//
// Determinism contract: the breaker never reads the wall clock itself —
// every time-dependent decision (Open → HalfOpen aging) goes through the
// injected Clock, so seeded-fault tests can drive state transitions
// exactly. The package is listed in the nodeterm analyzer's scope to keep
// it that way.
package breaker

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOpen marks a query rejected by admission control: the circuit is open
// (or half-open at probe capacity) and the source was not contacted. It is
// a deterministic refusal, never retried, and callers distinguish it from
// real source errors with errors.Is.
var ErrOpen = errors.New("breaker: circuit open")

// Clock supplies the current time. Production uses the wall clock; tests
// inject a manual clock so Open → HalfOpen transitions are deterministic.
type Clock func() time.Time

// State is the circuit's admission state.
type State uint8

const (
	// StateClosed admits every query; outcomes feed the failure window.
	StateClosed State = iota
	// StateOpen rejects every query until OpenTimeout has elapsed.
	StateOpen
	// StateHalfOpen admits at most HalfOpenProbes concurrent probe queries;
	// probe successes close the circuit, a probe failure reopens it.
	StateHalfOpen
)

// String names the state as it appears on /healthz.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Class is what one settled attempt teaches the breaker.
type Class uint8

const (
	// ClassSuccess is a completed query.
	ClassSuccess Class = iota
	// ClassFailure is a transient/timeout outcome — the only kind that
	// feeds the failure window. Permanent refusals (capability, budget)
	// never reach the breaker, and must not: they say nothing about source
	// health.
	ClassFailure
	// ClassNeutral is an outcome that says nothing about the source:
	// caller cancellation or a budget refusal discovered after admission.
	// It releases a probe slot but feeds neither the window nor the EWMAs.
	ClassNeutral
)

// Config tunes a Breaker. The zero value resolves to the documented
// defaults.
type Config struct {
	// Window is the sliding outcome window the error rate is computed over.
	// <= 0 means the default of 16.
	Window int
	// TripRate is the failure fraction over the window that opens the
	// circuit (once MinSamples outcomes are in). <= 0 means 0.5.
	TripRate float64
	// MinSamples is the minimum window fill before TripRate can trip.
	// <= 0 means 8.
	MinSamples int
	// ConsecutiveFailures opens the circuit outright after this many
	// back-to-back failures, regardless of window fill. <= 0 means 5.
	ConsecutiveFailures int
	// OpenTimeout is how long the circuit stays open before the next query
	// is admitted as a half-open probe. <= 0 means 500ms.
	OpenTimeout time.Duration
	// HalfOpenProbes bounds concurrent probes while half-open. <= 0 means 1.
	HalfOpenProbes int
	// CloseAfter is the number of probe successes that close the circuit.
	// <= 0 means 2.
	CloseAfter int
	// Alpha is the EWMA smoothing factor for the health score's failure and
	// latency averages. <= 0 means 0.2.
	Alpha float64
	// Clock injects time; nil means the wall clock.
	Clock Clock
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.TripRate <= 0 {
		c.TripRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.CloseAfter <= 0 {
		c.CloseAfter = 2
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.2
	}
	if c.Clock == nil {
		// The one wall-clock touchpoint: a function *value*, never called
		// here — decisions read it through b.now, and tests replace it.
		c.Clock = time.Now
	}
	return c
}

// Breaker is one source's admission controller. Safe for concurrent use.
type Breaker struct {
	name string
	cfg  Config
	now  Clock

	mu       sync.Mutex
	state    State
	openedAt time.Time

	// Sliding outcome window (ring buffer): true = failure.
	window []bool
	wnext  int
	wlen   int
	wfails int
	consec int

	// Half-open probe bookkeeping.
	inflightProbes int
	probeSuccesses int

	// EWMA health signals. fastLat tracks recent service time, slowLat a
	// longer horizon (Alpha/8); their ratio is the latency penalty in the
	// health score, so a source that suddenly slows down scores lower even
	// before it starts erroring.
	ewmaSet  bool
	ewmaFail float64
	fastLat  float64 // nanoseconds
	slowLat  float64 // nanoseconds

	// Counters (snapshot via Snapshot).
	trips         uint64
	rejections    uint64
	probes        uint64
	probeFailures uint64
	successes     uint64
	failures      uint64
	neutrals      uint64
}

// New builds a breaker for the named source.
func New(name string, cfg Config) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		name:   name,
		cfg:    cfg,
		now:    cfg.Clock,
		window: make([]bool, cfg.Window),
	}
}

// Name returns the source name the breaker guards.
func (b *Breaker) Name() string { return b.name }

// Call is one admitted attempt; settle it with Observe exactly once.
// A nil *Call is inert, so callers without a breaker need no guards.
type Call struct {
	b     *Breaker
	probe bool
	done  bool
}

// Allow asks for admission. It returns a Call to settle on success, or an
// error wrapping ErrOpen when the circuit rejects the query (the source is
// not contacted and no budget is consumed).
func (b *Breaker) Allow() (*Call, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return &Call{b: b}, nil
	case StateOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			b.rejections++
			return nil, fmt.Errorf("breaker %s: %w", b.name, ErrOpen)
		}
		// Aged out: the next query becomes the first half-open probe.
		b.state = StateHalfOpen
		b.inflightProbes = 0
		b.probeSuccesses = 0
	case StateHalfOpen:
		// fall through to the probe admission below
	}
	if b.inflightProbes >= b.cfg.HalfOpenProbes {
		b.rejections++
		return nil, fmt.Errorf("breaker %s (half-open, probes busy): %w", b.name, ErrOpen)
	}
	b.inflightProbes++
	b.probes++
	return &Call{b: b, probe: true}, nil
}

// Observe settles the call with its outcome. latency is the attempt's
// service time (ignored for ClassNeutral). Calling Observe more than once,
// or on a nil Call, is a no-op.
func (c *Call) Observe(latency time.Duration, class Class) {
	if c == nil || c.done {
		return
	}
	c.done = true
	b := c.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if c.probe && b.inflightProbes > 0 {
		b.inflightProbes--
	}
	switch class {
	case ClassNeutral:
		b.neutrals++
		return
	case ClassSuccess:
		b.successes++
	case ClassFailure:
		b.failures++
	}
	b.observeHealthLocked(latency, class == ClassFailure)
	switch b.state {
	case StateClosed:
		b.pushWindowLocked(class == ClassFailure)
		if class == ClassFailure {
			b.consec++
			if b.tripLocked() {
				b.openLocked()
			}
		} else {
			b.consec = 0
		}
	case StateHalfOpen:
		if !c.probe {
			return // a closed-state straggler resolving after a trip
		}
		if class == ClassFailure {
			b.probeFailures++
			b.openLocked()
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= b.cfg.CloseAfter {
			b.closeLocked()
		}
	case StateOpen:
		// A straggler admitted before the trip; its outcome already fed the
		// health EWMAs, and the open window ignores it.
	}
}

// pushWindowLocked records one outcome in the sliding window.
func (b *Breaker) pushWindowLocked(fail bool) {
	if b.wlen == len(b.window) {
		if b.window[b.wnext] {
			b.wfails--
		}
	} else {
		b.wlen++
	}
	b.window[b.wnext] = fail
	if fail {
		b.wfails++
	}
	b.wnext = (b.wnext + 1) % len(b.window)
}

// tripLocked reports whether the closed-state thresholds are met.
func (b *Breaker) tripLocked() bool {
	if b.consec >= b.cfg.ConsecutiveFailures {
		return true
	}
	return b.wlen >= b.cfg.MinSamples &&
		float64(b.wfails)/float64(b.wlen) >= b.cfg.TripRate
}

// openLocked trips the circuit and resets closed/half-open bookkeeping.
func (b *Breaker) openLocked() {
	b.state = StateOpen
	b.openedAt = b.now()
	b.trips++
	b.resetWindowLocked()
	b.inflightProbes = 0
	b.probeSuccesses = 0
}

// closeLocked restores normal admission.
func (b *Breaker) closeLocked() {
	b.state = StateClosed
	b.resetWindowLocked()
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.wnext, b.wlen, b.wfails, b.consec = 0, 0, 0, 0
}

// observeHealthLocked feeds the EWMAs.
func (b *Breaker) observeHealthLocked(latency time.Duration, fail bool) {
	v := 0.0
	if fail {
		v = 1.0
	}
	lat := float64(latency)
	if !b.ewmaSet {
		b.ewmaSet = true
		b.ewmaFail = v
		b.fastLat = lat
		b.slowLat = lat
		return
	}
	a := b.cfg.Alpha
	b.ewmaFail = a*v + (1-a)*b.ewmaFail
	b.fastLat = a*lat + (1-a)*b.fastLat
	sa := a / 8
	b.slowLat = sa*lat + (1-sa)*b.slowLat
}

// healthLocked computes the health score in [0, 1]: the EWMA success rate,
// scaled down by the ratio of the long-horizon latency to the recent
// latency when the source has slowed (a source erroring never and
// answering at its usual speed scores 1).
func (b *Breaker) healthLocked() float64 {
	if !b.ewmaSet {
		return 1
	}
	h := 1 - b.ewmaFail
	if b.fastLat > b.slowLat && b.fastLat > 0 {
		h *= b.slowLat / b.fastLat
	}
	if h < 0 {
		h = 0
	}
	return h
}

// State returns the current admission state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Health returns the EWMA health score in [0, 1] (1 = fully healthy).
func (b *Breaker) Health() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthLocked()
}

// Snapshot is a point-in-time copy of the breaker's state and accounting —
// what /healthz, /metrics and -stats read.
type Snapshot struct {
	// State is the admission state at snapshot time.
	State State
	// Health is the EWMA health score in [0, 1].
	Health float64
	// WindowFailRate is the failure fraction over the current sliding
	// window (0 when empty).
	WindowFailRate float64
	// ConsecutiveFailures is the current back-to-back failure run.
	ConsecutiveFailures int
	// Trips counts Closed/HalfOpen → Open transitions.
	Trips uint64
	// Rejections counts queries refused at admission (circuit open or
	// probes busy) — source queries saved outright.
	Rejections uint64
	// Probes / ProbeFailures count half-open probe admissions and the
	// probes that failed (reopening the circuit).
	Probes        uint64
	ProbeFailures uint64
	// Successes / Failures / Neutrals count settled outcomes by class.
	Successes uint64
	Failures  uint64
	Neutrals  uint64
	// EWMALatency is the recent (fast-horizon) EWMA service time.
	EWMALatency time.Duration
}

// Snapshot returns the current state and accounting.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{
		State:               b.state,
		Health:              b.healthLocked(),
		ConsecutiveFailures: b.consec,
		Trips:               b.trips,
		Rejections:          b.rejections,
		Probes:              b.probes,
		ProbeFailures:       b.probeFailures,
		Successes:           b.successes,
		Failures:            b.failures,
		Neutrals:            b.neutrals,
		EWMALatency:         time.Duration(b.fastLat),
	}
	if b.wlen > 0 {
		s.WindowFailRate = float64(b.wfails) / float64(b.wlen)
	}
	return s
}
