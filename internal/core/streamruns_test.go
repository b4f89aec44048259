package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"qpiad/internal/afd"
	"qpiad/internal/nbc"
	"qpiad/internal/relation"
	"qpiad/internal/source"
)

// twoNullFixture is the standard fixture with year nulled too, over a
// source that binds nulls, so that body_style = 'Convt' AND year IS NULL
// fetches tuples null on both constrained attributes: the unranked tail.
func twoNullFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	gd := buildCarsGD(4000, 1)
	ed, _ := makeIncomplete(gd, "body_style", 0.10, 2)
	ed, _ = makeIncomplete(ed, "year", 0.10, 4)
	src := source.New("cars", ed, source.Capabilities{AllowNullBinding: true})
	smpl := ed.Sample(600, rand.New(rand.NewSource(3)))
	k, err := MineKnowledge("cars", smpl, float64(ed.Len())/float64(smpl.Len()), smpl.IncompleteFraction(), KnowledgeConfig{
		AFD:       afd.Config{MinSupport: 5},
		Predictor: nbc.PredictorConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	m.Register(src, k)
	return &fixture{ed: ed, src: src, k: k, m: m, sample: smpl}
}

// twoNullQuery is the two-constraint query whose fold yields unranked
// answers on twoNullFixture.
func twoNullQuery() relation.Query {
	return relation.NewQuery("cars", relation.Eq("body_style", relation.String("Convt")), relation.IsNull("year"))
}

// TestSelectStreamRuns pins the run contract of StreamEventAnswer: the
// first event is the whole certain section; every later run holds one
// rewrite's possible or unranked answers and comes before that rewrite's
// outcome, possible before unranked; no run is empty or has spare
// capacity; and the runs concatenated are the summary's sections and
// batch's, element for element. A stale replay is at most three runs, each
// flagged Stale.
func TestSelectStreamRuns(t *testing.T) {
	f := twoNullFixture(t, Config{})
	unranked := 0
	for _, tc := range []struct {
		name string
		q    relation.Query
	}{
		{"one-constraint", convtQuery()},
		{"two-constraint", twoNullQuery()},
	} {
		for _, parallel := range []int{1, 4} {
			cfg := Config{Alpha: 0.5, K: 10, Parallel: parallel, NoCache: true}
			batch, err := f.m.QuerySelectWith(cfg, "cars", tc.q)
			if err != nil {
				t.Fatal(err)
			}
			unranked += len(batch.Unranked)
			stream, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", tc.q)
			if err != nil {
				t.Fatal(err)
			}
			var events []StreamEvent
			for ev := range stream {
				events = append(events, ev)
			}
			sum := events[len(events)-1].Summary
			if sum == nil {
				t.Fatalf("%s/p%d: stream ended without a summary", tc.name, parallel)
			}
			checkRuns(t, tc.name, events)
			var certain, possible, unrankedRun []Answer
			for _, ev := range events {
				switch {
				case ev.Kind != StreamEventAnswer:
				case ev.Answers[0].Certain:
					certain = append(certain, ev.Answers...)
				case ev.Unranked:
					unrankedRun = append(unrankedRun, ev.Answers...)
				default:
					possible = append(possible, ev.Answers...)
				}
			}
			for _, sec := range []struct {
				name               string
				runs, summary, bat []Answer
			}{
				{"certain", certain, sum.Result.Certain, batch.Certain},
				{"possible", possible, sum.Result.Possible, batch.Possible},
				{"unranked", unrankedRun, sum.Result.Unranked, batch.Unranked},
			} {
				if len(sec.runs) != len(sec.summary) || len(sec.runs) != len(sec.bat) {
					t.Fatalf("%s/p%d %s: runs hold %d answers, summary %d, batch %d",
						tc.name, parallel, sec.name, len(sec.runs), len(sec.summary), len(sec.bat))
				}
				for i := range sec.runs {
					if !reflect.DeepEqual(sec.runs[i], sec.summary[i]) || !reflect.DeepEqual(sec.runs[i], sec.bat[i]) {
						t.Fatalf("%s/p%d %s answer %d differs between runs, summary and batch", tc.name, parallel, sec.name, i)
					}
				}
			}
		}
	}
	if unranked == 0 {
		t.Fatal("no query yielded unranked answers: the test no longer covers unranked runs")
	}

	sf, _, rsFresh := staleFixture(t)
	stream, err := sf.m.SelectStreamWith(context.Background(), sf.m.Config(), "cars", convtQuery())
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	var replay []Answer
	for ev := range stream {
		if ev.Kind != StreamEventAnswer {
			continue
		}
		runs++
		if !ev.Stale || len(ev.Answers) == 0 {
			t.Errorf("stale run %d: %d answers, Stale %v", runs, len(ev.Answers), ev.Stale)
		}
		replay = append(replay, ev.Answers...)
	}
	if runs > 3 || len(replay) != len(rsFresh.AllAnswers()) {
		t.Errorf("stale replay: %d runs of %d answers, want at most 3 runs of %d", runs, len(replay), len(rsFresh.AllAnswers()))
	}
}

// checkRuns checks the order and shape of a stream's runs against its
// rewrite events (see TestSelectStreamRuns).
func checkRuns(t *testing.T, name string, events []StreamEvent) {
	t.Helper()
	if ev := events[0]; ev.Kind != StreamEventAnswer || ev.Unranked {
		t.Fatalf("%s: first event is %v (unranked %v), want the certain run", name, ev.Kind, ev.Unranked)
	}
	if sum := events[len(events)-1].Summary; !reflect.DeepEqual(events[0].Answers, sum.Result.Certain) {
		t.Fatalf("%s: first run holds %d answers, want the %d certain answers", name, len(events[0].Answers), len(sum.Result.Certain))
	}
	var pending []StreamEvent // runs since the last rewrite event
	for i, ev := range events {
		switch ev.Kind {
		case StreamEventAnswer:
			if len(ev.Answers) == 0 || cap(ev.Answers) != len(ev.Answers) {
				t.Fatalf("%s: event %d: run of %d answers, capacity %d", name, i, len(ev.Answers), cap(ev.Answers))
			}
			for _, a := range ev.Answers {
				if a.Certain != (i == 0) {
					t.Fatalf("%s: event %d mixes certain and possible answers", name, i)
				}
			}
			if i == 0 {
				continue
			}
			for _, p := range pending {
				if p.Unranked || !ev.Unranked {
					t.Fatalf("%s: event %d: a second run for one rewrite, or possible after unranked", name, i)
				}
			}
			pending = append(pending, ev)
		case StreamEventRewrite:
			kept := 0
			for _, p := range pending {
				for _, a := range p.Answers {
					if a.FromQuery.Key() != ev.Rewrite.Query.Key() {
						t.Fatalf("%s: event %d: a run's answer came from %v, not its rewrite %v", name, i, a.FromQuery, ev.Rewrite.Query)
					}
				}
				kept += len(p.Answers)
			}
			if kept != ev.Rewrite.Kept {
				t.Fatalf("%s: event %d: runs before the rewrite hold %d answers, it kept %d", name, i, kept, ev.Rewrite.Kept)
			}
			pending = pending[:0]
		}
	}
	if len(pending) > 0 {
		t.Fatalf("%s: %d runs after the last rewrite event", name, len(pending))
	}
}

// TestSelectStreamRunsReadWhileFolding reads every answer of each run as it
// arrives while the producer goes on folding later rewrites into the same
// sections. Under the race detector it checks that a fold never writes
// where an emitted run points; what was read must be the summary's answers.
func TestSelectStreamRunsReadWhileFolding(t *testing.T) {
	cfg := Config{Alpha: 0.5, K: 10, Parallel: 4, NoCache: true}
	f := twoNullFixture(t, cfg)
	for _, q := range []relation.Query{convtQuery(), twoNullQuery()} {
		stream, err := f.m.SelectStreamWith(context.Background(), cfg, "cars", q)
		if err != nil {
			t.Fatal(err)
		}
		var read []Answer
		var sum *StreamSummary
		for ev := range stream {
			for _, a := range ev.Answers {
				a.Tuple = slices.Clone(a.Tuple)
				read = append(read, a)
			}
			if ev.Kind == StreamEventSummary {
				sum = ev.Summary
			}
		}
		if sum == nil {
			t.Fatal("stream ended without a summary")
		}
		if !reflect.DeepEqual(read, sum.Result.AllAnswers()) {
			t.Errorf("%v: read %d answers from the runs, unequal to the summary's %d", q, len(read), len(sum.Result.AllAnswers()))
		}
	}
}
