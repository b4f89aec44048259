package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"qpiad/internal/faults"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// collectStream drains a stream into its parts, preserving arrival order:
// the answer events (runs), the rewrite outcomes and the summary.
func collectStream(t *testing.T, events <-chan StreamEvent) (answers []StreamEvent, rewrites []*RewrittenQuery, sum *StreamSummary) {
	t.Helper()
	for ev := range events {
		switch ev.Kind {
		case StreamEventAnswer:
			answers = append(answers, ev)
		case StreamEventRewrite:
			rewrites = append(rewrites, ev.Rewrite)
		case StreamEventSummary:
			if sum != nil {
				t.Fatal("second summary event")
			}
			sum = ev.Summary
		default:
			t.Fatalf("unknown event kind %v", ev.Kind)
		}
	}
	return answers, rewrites, sum
}

// TestSelectStreamEquivalence pins the core acceptance invariant: with
// TopN=0 the streaming executor's reassembled ResultSet is exactly what the
// batch executor returns — same answers, same order, same Issued accounting,
// for both sequential and parallel issuing, with and without null binding.
func TestSelectStreamEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel int
		caps     source.Capabilities
	}{
		{"sequential", 1, source.Capabilities{}},
		{"parallel", 4, source.Capabilities{}},
		{"parallel-null-binding", 4, source.Capabilities{AllowNullBinding: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Alpha: 0.5, K: 10, Parallel: tc.parallel, NoCache: true}
			f := newFixture(t, cfg)
			// Rebuild the source with the wanted capabilities over the same
			// relation so batch and stream query identical data.
			src := source.New("cars", f.ed, tc.caps)
			f.m.Register(src, f.k)

			q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
			batch, err := f.m.QuerySelectWithCtx(context.Background(), cfg, "cars", q)
			if err != nil {
				t.Fatal(err)
			}

			events, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", q)
			if err != nil {
				t.Fatal(err)
			}
			answers, rewrites, sum := collectStream(t, events)
			if sum == nil {
				t.Fatal("stream ended without a summary")
			}
			if !reflect.DeepEqual(sum.Result, batch) {
				t.Errorf("streamed result differs from batch:\n stream: %+v\n batch:  %+v", sum.Result, batch)
			}
			if sum.EarlyStopped || sum.SkippedRewrites != 0 || sum.CancelledRewrites != 0 {
				t.Errorf("TopN=0 stream reported early-stop savings: %+v", sum)
			}

			// The emitted answer events must replay the result set in rank
			// order: certain answers, then possible, with unranked flagged.
			var replayCertain, replayPossible, replayUnranked []Answer
			for _, ev := range answers {
				for _, a := range ev.Answers {
					switch {
					case a.Certain:
						replayCertain = append(replayCertain, a)
					case ev.Unranked:
						replayUnranked = append(replayUnranked, a)
					default:
						replayPossible = append(replayPossible, a)
					}
				}
			}
			if !reflect.DeepEqual(replayCertain, batch.Certain) {
				t.Error("emitted certain answers differ from batch")
			}
			if !reflect.DeepEqual(replayPossible, batch.Possible) {
				t.Error("emitted possible answers differ from batch")
			}
			if len(batch.Unranked) > 0 && !reflect.DeepEqual(replayUnranked, batch.Unranked) {
				t.Error("emitted unranked answers differ from batch")
			}
			if len(rewrites) != len(batch.Issued) {
				t.Errorf("got %d rewrite events, batch issued %d", len(rewrites), len(batch.Issued))
			}
		})
	}
}

// TestSelectStreamDegraded seeds transient faults heavy enough that some
// rewrites exhaust their retries: the failures must surface as rewrite
// events carrying the error, mark the summary Degraded, and not kill the
// stream.
func TestSelectStreamDegraded(t *testing.T) {
	cfg := Config{
		Alpha: 0.5, K: 10, Parallel: 4, NoCache: true,
		Retry: RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  200 * time.Microsecond,
		},
	}
	f := newFixture(t, cfg)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	// Fault decisions are a pure function of (seed, query, attempt), so scan
	// seeds for one where the base query survives its retries but at least
	// one rewrite exhausts them — a partial-degradation world. Once found the
	// scenario replays identically on every run.
	var answers []StreamEvent
	var rewrites []*RewrittenQuery
	var sum *StreamSummary
	failed := 0
	for seed := int64(1); seed <= 32; seed++ {
		f.src.SetFaults(faults.New(faults.Profile{Seed: seed, TransientRate: 0.6}))
		events, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", q)
		if err != nil {
			continue // base query failed under this seed; try the next
		}
		answers, rewrites, sum = collectStream(t, events)
		if sum == nil {
			t.Fatal("stream ended without a summary")
		}
		failed = 0
		for _, rq := range rewrites {
			if rq.Err != nil {
				failed++
				if errors.Is(rq.Err, ErrEarlyStop) {
					t.Errorf("fault-failed rewrite reported as early-stop: %v", rq.Err)
				}
			}
		}
		if failed > 0 {
			break
		}
	}
	if failed == 0 {
		t.Fatal("no seed in [1,32] produced a surviving base query with a failed rewrite")
	}
	if !sum.Result.Degraded {
		t.Error("summary not marked Degraded despite failed rewrites")
	}
	if len(answers) == 0 {
		t.Error("no answers survived — degradation should be partial")
	}
	if len(rewrites) != len(sum.Result.Issued) {
		t.Errorf("rewrite events %d != issued accounting %d", len(rewrites), len(sum.Result.Issued))
	}
}

// TestSelectStreamTopN verifies the confidence-bound early stop: the first
// TopN possible answers match the full run's prefix exactly, later rewrites
// are skipped or cancelled (saving source queries), and the result is not
// marked degraded by the stop.
func TestSelectStreamTopN(t *testing.T) {
	const topN = 3
	full := Config{Alpha: 0.5, K: 10, Parallel: 1, NoCache: true}
	f := newFixture(t, full)
	// A real autonomous source has per-query latency; that is what makes
	// early termination worth anything. 20ms is enough that the fold loop
	// (microseconds) reliably trips the stop before the sequencer admits the
	// trailing rewrites.
	src := source.New("cars", f.ed, source.Capabilities{Latency: 20 * time.Millisecond})
	f.m.Register(src, f.k)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	batch, err := f.m.QuerySelectWithCtx(context.Background(), full, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Possible) <= topN || len(batch.Issued) < 2 {
		t.Fatalf("fixture too small to exercise early stop: %d possible, %d issued",
			len(batch.Possible), len(batch.Issued))
	}
	queriesBefore := src.Stats().Queries

	cfg := full
	cfg.TopN = topN
	events, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	_, rewrites, sum := collectStream(t, events)
	if sum == nil {
		t.Fatal("stream ended without a summary")
	}
	if !sum.EarlyStopped {
		t.Fatal("bound never tripped despite TopN < available possible answers")
	}
	got := sum.Result.Possible
	if len(got) < topN {
		t.Fatalf("early-stopped stream delivered %d possible answers, want >= %d", len(got), topN)
	}
	// Admissibility: the delivered possible answers are exactly a prefix of
	// the batch ranking.
	if !reflect.DeepEqual(got, batch.Possible[:len(got)]) {
		t.Error("early-stopped possible answers are not a prefix of the batch ranking")
	}
	if sum.Result.Degraded {
		t.Error("early stop must not mark the result degraded")
	}
	if sum.SkippedRewrites == 0 {
		t.Error("no rewrites skipped — early stop saved nothing")
	}
	if sum.SkippedRewrites > 0 && sum.EstSavedTuples <= 0 {
		t.Error("skipped rewrites but EstSavedTuples is zero")
	}
	earlyStopped := 0
	for _, rq := range rewrites {
		if errors.Is(rq.Err, ErrEarlyStop) {
			earlyStopped++
		}
	}
	if earlyStopped != sum.SkippedRewrites+sum.CancelledRewrites {
		t.Errorf("ErrEarlyStop rewrites %d != skipped %d + cancelled %d",
			earlyStopped, sum.SkippedRewrites, sum.CancelledRewrites)
	}
	// The whole point: strictly fewer source queries than the batch run.
	streamQueries := src.Stats().Queries - queriesBefore
	batchQueries := queriesBefore // batch ran first on a fresh source
	if streamQueries >= batchQueries {
		t.Errorf("early-stopped stream used %d queries, batch used %d", streamQueries, batchQueries)
	}
}

// TestSelectStreamCancel cancels the caller context mid-stream: the channel
// must close promptly without a summary and without leaking goroutines
// (the race detector and test timeout police the latter).
func TestSelectStreamCancel(t *testing.T) {
	cfg := Config{Alpha: 0.5, K: 10, Parallel: 2, NoCache: true}
	f := newFixture(t, cfg)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))

	ctx, cancel := context.WithCancel(context.Background())
	events, err := f.m.SelectStreamWith(ctx, cfg, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	// Read one event (there is always at least one certain answer in this
	// fixture), then walk away.
	if _, ok := <-events; !ok {
		t.Fatal("stream closed before first event")
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // closed — done
			}
		case <-deadline:
			t.Fatal("stream did not close after context cancellation")
		}
	}
}

// TestSelectStreamTopNCountsOnlyPossible pins that certain answers do not
// consume the TopN budget: a query with many certain answers still issues
// rewrites until TopN possible answers are out.
func TestSelectStreamTopNCountsOnlyPossible(t *testing.T) {
	cfg := Config{Alpha: 0.5, K: 10, Parallel: 1, NoCache: true, TopN: 1}
	f := newFixture(t, cfg)
	q := relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")))
	events, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", q)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sum := collectStream(t, events)
	if sum == nil {
		t.Fatal("no summary")
	}
	if len(sum.Result.Certain) == 0 {
		t.Fatal("fixture query returned no certain answers")
	}
	if len(sum.Result.Possible) < 1 {
		t.Errorf("TopN=1 delivered %d possible answers despite %d certain answers — certain answers must not satisfy the bound",
			len(sum.Result.Possible), len(sum.Result.Certain))
	}
}
