// Server-side admission control: a bounded in-flight semaphore with a
// deadline-aware wait queue in front of the expensive mediator endpoints
// (POST /query and POST /join — the observability GETs are never gated, so
// the server stays inspectable while shedding).
//
// The model is admit / queue / shed:
//
//   - at most MaxInFlight requests execute the mediator pipeline at once;
//   - the next MaxQueue requests wait in FIFO-ish order (Go channel
//     semantics) for a slot, but never longer than QueueTimeout, and never
//     when their own context deadline cannot outlive the wait;
//   - everything beyond that is shed immediately with 429 Too Many
//     Requests, a Retry-After hint and a structured JSON body, costing the
//     server two atomic ops instead of a pipeline run.
//
// Shedding beats queueing at saturation: an unbounded queue converts
// overload into unbounded latency for everyone, while a bounded queue with
// a deadline keeps the latency of *admitted* requests within
// queue-wait + service-time and tells the rest to come back later.
package httpapi

import (
	"context"
	"sync/atomic"
	"time"

	"qpiad/internal/breaker"
	"qpiad/internal/latency"
)

// AdmissionConfig tunes the server's admission gate. The zero value of any
// field takes the documented default.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently executing /query + /join requests.
	// Default 64.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot before the
	// server sheds. Default 2×MaxInFlight. Negative means no queue: every
	// request beyond MaxInFlight is shed immediately.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits before being
	// shed. Default 100ms.
	QueueTimeout time.Duration
	// RetryAfter is the client back-off hint attached to shed responses
	// (the Retry-After header, rounded up to whole seconds, and the exact
	// retry_after_ms body field). Default QueueTimeout.
	RetryAfter time.Duration
	// Clock injects time for queue-deadline math and endpoint latency
	// histograms. nil means the wall clock.
	Clock breaker.Clock
}

// WithDefaults resolves zero fields to their defaults and a negative
// MaxQueue to 0 (no queue). The gate runs on the config it returns.
func (c AdmissionConfig) WithDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = c.QueueTimeout
	}
	if c.Clock == nil {
		// A function value, never called here: admission reads it through
		// a.clock, and tests replace it (the breaker Clock idiom).
		c.Clock = time.Now
	}
	return c
}

// shedReason classifies why a request was shed.
type shedReason string

const (
	shedQueueFull shedReason = "queue_full"    // queue at capacity on arrival
	shedTimeout   shedReason = "queue_timeout" // waited QueueTimeout without a slot
	shedDeadline  shedReason = "deadline"      // own deadline cannot outlive the queue wait
)

// admission is the gate: a channel semaphore for in-flight slots plus an
// atomic waiter count for the bounded queue. All counters are wait-free.
type admission struct {
	cfg   AdmissionConfig
	clock breaker.Clock
	sem   chan struct{}

	inflight atomic.Int64
	queued   atomic.Int64

	admitted      atomic.Int64
	shedQueueFull atomic.Int64
	shedTimeout   atomic.Int64
	shedDeadline  atomic.Int64

	// queueWait tracks how long admitted requests waited for their slot —
	// the queueing-delay component of observed latency.
	queueWait latency.Hist
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.WithDefaults()
	return &admission{
		cfg:   cfg,
		clock: cfg.Clock,
		sem:   make(chan struct{}, cfg.MaxInFlight),
	}
}

// acquire admits the request, queues it, or sheds it. On admission the
// returned release must be called exactly once when the request finishes.
// A non-empty shedReason means the caller should answer 429. err is
// non-nil only when ctx was cancelled while waiting (client disconnect).
func (a *admission) acquire(ctx context.Context) (release func(), shed shedReason, err error) {
	// Fast path: a free slot, no queueing.
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		a.inflight.Add(1)
		return a.release, "", nil
	default:
	}

	// Deadline-aware: a waiter whose own deadline cannot survive even an
	// instant in the queue is shed up front rather than parked.
	wait := a.cfg.QueueTimeout
	clamped := false
	if dl, ok := ctx.Deadline(); ok {
		remaining := dl.Sub(a.clock())
		if remaining <= 0 {
			a.shedDeadline.Add(1)
			return nil, shedDeadline, nil
		}
		if remaining < wait {
			wait, clamped = remaining, true
		}
	}

	// Bounded queue: claim a waiter slot or shed.
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.shedQueueFull.Add(1)
		return nil, shedQueueFull, nil
	}
	defer a.queued.Add(-1)

	start := a.clock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		a.inflight.Add(1)
		a.queueWait.Record(a.clock().Sub(start))
		return a.release, "", nil
	case <-timer.C:
		if clamped {
			// The wait was cut short by the request's own deadline, not by
			// queue pressure alone.
			a.shedDeadline.Add(1)
			return nil, shedDeadline, nil
		}
		a.shedTimeout.Add(1)
		return nil, shedTimeout, nil
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// release frees one in-flight slot.
func (a *admission) release() {
	<-a.sem
	a.inflight.Add(-1)
}

// shedBody is the structured JSON payload of a 429 shed response.
type shedBody struct {
	Error string `json:"error"`
	// Shed distinguishes load shedding from other 4xx errors.
	Shed bool `json:"shed"`
	// Reason is "queue_full", "queue_timeout" or "deadline".
	Reason string `json:"reason"`
	// RetryAfterMs is the exact back-off hint; the Retry-After header
	// carries the same value rounded up to whole seconds.
	RetryAfterMs int64 `json:"retry_after_ms"`
}

// admissionJSON is the admission section of the /metrics payload.
type admissionJSON struct {
	MaxInFlight int   `json:"max_inflight"`
	MaxQueue    int   `json:"max_queue"`
	InFlight    int64 `json:"inflight"`
	Queued      int64 `json:"queued"`
	Admitted    int64 `json:"admitted"`
	// Shed totals, by reason and summed.
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedTimeout   int64 `json:"shed_queue_timeout"`
	ShedDeadline  int64 `json:"shed_deadline"`
	Shed          int64 `json:"shed"`
	// QueueWait summarizes how long admitted requests waited for a slot.
	QueueWait latency.Summary `json:"queue_wait"`
}

// snapshot renders the admission counters for /metrics.
func (a *admission) snapshot() *admissionJSON {
	qf, qt, dl := a.shedQueueFull.Load(), a.shedTimeout.Load(), a.shedDeadline.Load()
	return &admissionJSON{
		MaxInFlight:   a.cfg.MaxInFlight,
		MaxQueue:      a.cfg.MaxQueue,
		InFlight:      a.inflight.Load(),
		Queued:        a.queued.Load(),
		Admitted:      a.admitted.Load(),
		ShedQueueFull: qf,
		ShedTimeout:   qt,
		ShedDeadline:  dl,
		Shed:          qf + qt + dl,
		QueueWait:     a.queueWait.Snapshot(),
	}
}
