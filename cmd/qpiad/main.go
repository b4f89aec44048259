// Command qpiad answers queries over an incomplete car database, showing
// certain answers followed by QPIAD's ranked relevant possible answers
// with confidences and AFD-based explanations.
//
// By default it generates the synthetic Cars dataset, makes 10% of the
// tuples incomplete, learns from a 10% sample, and runs the query given by
// -attr/-value (optionally more predicates via -where).
//
// Examples:
//
//	qpiad -attr body_style -value Convt
//	qpiad -attr price -value 20000 -alpha 1 -k 15
//	qpiad -csv mycars.csv -attr body_style -value Coupe
//	qpiad -attr model -value Accord -where "year=2003"
//	qpiad -sql "SELECT * FROM db WHERE body_style = 'Convt' AND year >= 2002"
//	qpiad -attr body_style -value Convt -stream
//	qpiad -attr body_style -value Convt -stream -top 5
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"qpiad"
	"qpiad/internal/datagen"
)

func main() {
	var (
		csvPath  = flag.String("csv", "", "load the database from a typed-header CSV instead of generating cars")
		n        = flag.Int("n", 20000, "generated dataset size")
		seed     = flag.Int64("seed", 42, "random seed")
		incmp    = flag.Float64("incomplete", 0.10, "fraction of tuples made incomplete (generated data only)")
		smplFrac = flag.Float64("sample", 0.10, "training sample fraction")
		attr     = flag.String("attr", "body_style", "constrained attribute")
		value    = flag.String("value", "Convt", "constrained value")
		where    = flag.String("where", "", "extra predicates, comma-separated attr=value pairs")
		sql      = flag.String("sql", "", "full SQL query (overrides -attr/-value/-where)")
		replMode = flag.Bool("repl", false, "interactive SQL shell after learning")
		alpha    = flag.Float64("alpha", 0, "F-measure alpha (0 = precision-only ordering)")
		k        = flag.Int("k", 10, "max rewritten queries (0 or less = unlimited)")
		limit    = flag.Int("limit", 15, "answers to print per section")
		explain  = flag.Bool("explain", true, "show AFD-based explanations")
		stats    = flag.Bool("stats", false, "print full per-source metrics (queries, retries, errors, latency percentiles)")

		mineWorkers = flag.Int("mine-workers", 0, "worker goroutines for knowledge mining (0 = GOMAXPROCS)")
		noCache     = flag.Bool("no-cache", false, "disable the mediator answer cache")

		stream = flag.Bool("stream", false, "stream answers as they arrive instead of waiting for the full result")
		top    = flag.Int("top", 0, "with -stream: stop querying once this many possible answers are delivered (0 = no early stop)")

		errRate     = flag.Float64("error-rate", 0, "injected transient-error rate per query attempt (deterministic per -fault-seed)")
		timeoutRate = flag.Float64("timeout-rate", 0, "injected timeout rate per query attempt")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for deterministic fault injection")
		flapUp      = flag.Int("flap-up", 0, "scripted flap: queries served before each down window")
		flapDown    = flag.Int("flap-down", 0, "scripted flap: queries failed per down window (0 = no flapping)")
		retries     = flag.Int("retries", 0, "max attempts per query (0 = default of 3)")
		attemptTO   = flag.Duration("attempt-timeout", 0, "per-attempt deadline (0 = none)")

		useBreaker = flag.Bool("breaker", false, "attach per-source circuit breakers (open circuits skip planned rewrites)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "answer-cache freshness bound (0 = never expires)")
		staleTTL   = flag.Duration("stale-ttl", 0, "serve cached answers up to this old, flagged stale, when the circuit is open (0 = off)")
	)
	flag.Parse()

	res := resilience{
		stats:       *stats,
		mineWorkers: *mineWorkers,
		noCache:     *noCache,
		topN:        *top,
		faults: qpiad.FaultProfile{
			Seed:          *faultSeed,
			TransientRate: *errRate,
			TimeoutRate:   *timeoutRate,
			FlapUp:        *flapUp,
			FlapDown:      *flapDown,
		},
		retry:    qpiad.RetryPolicy{MaxAttempts: *retries, AttemptTimeout: *attemptTO},
		cacheTTL: *cacheTTL,
		staleTTL: *staleTTL,
	}
	if *useBreaker {
		res.breaker = &qpiad.BreakerConfig{}
	}

	if *stream {
		if err := runStream(*csvPath, *n, *seed, *incmp, *smplFrac, *attr, *value, *where, *sql, *alpha, *k, *limit, *explain, res); err != nil {
			fmt.Fprintln(os.Stderr, "qpiad:", err)
			os.Exit(1)
		}
		return
	}

	if *replMode {
		sys, db, err := setup(*csvPath, *n, *seed, *incmp, *smplFrac, *alpha, *k, res)
		if err == nil {
			err = repl(sys, db, os.Stdin, os.Stdout, *limit, *explain)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpiad:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*csvPath, *n, *seed, *incmp, *smplFrac, *attr, *value, *where, *sql, *alpha, *k, *limit, *explain, res); err != nil {
		fmt.Fprintln(os.Stderr, "qpiad:", err)
		os.Exit(1)
	}
}

// resilience bundles the fault-injection, retry and admission-control knobs.
type resilience struct {
	stats       bool
	mineWorkers int
	noCache     bool
	topN        int
	faults      qpiad.FaultProfile
	retry       qpiad.RetryPolicy
	breaker     *qpiad.BreakerConfig
	cacheTTL    time.Duration
	staleTTL    time.Duration
}

// setup builds the learned system over a loaded or generated database.
func setup(csvPath string, n int, seed int64, incmp, smplFrac, alpha float64, k int, res resilience) (*qpiad.System, *qpiad.Relation, error) {
	var db *qpiad.Relation
	if csvPath != "" {
		var err error
		db, err = qpiad.LoadCSV("db", csvPath)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("loaded %d tuples from %s (%.1f%% incomplete)\n",
			db.Len(), csvPath, 100*db.IncompleteFraction())
	} else {
		gd := datagen.Cars(n, seed)
		db, _ = datagen.MakeIncomplete(gd, incmp, seed+1)
		fmt.Printf("generated %d car tuples, %.1f%% incomplete\n", db.Len(), 100*db.IncompleteFraction())
	}

	// The facade reads K 0 as its default of 10. Here, as in qpiad-server
	// and over HTTP, k ≤ 0 means every generated rewrite.
	if k <= 0 {
		k = -1
	}
	cfg := qpiad.Config{
		Alpha: alpha, K: k, Retry: res.retry,
		MineWorkers: res.mineWorkers, NoCache: res.noCache, TopN: res.topN,
		Breaker: res.breaker, CacheTTL: res.cacheTTL, StaleTTL: res.staleTTL,
	}
	sys := qpiad.New(cfg)
	if err := sys.AddSource("db", db, qpiad.Capabilities{}); err != nil {
		return nil, nil, err
	}
	if res.faults.Enabled() {
		if err := sys.InjectFaults("db", res.faults); err != nil {
			return nil, nil, err
		}
		fmt.Printf("fault injection on: %.0f%% transient, %.0f%% timeout (seed %d)\n",
			100*res.faults.TransientRate, 100*res.faults.TimeoutRate, res.faults.Seed)
	}
	smpl := db.Sample(int(float64(db.Len())*smplFrac), rand.New(rand.NewSource(seed+2)))
	if err := sys.LearnFromSample("db", smpl, 0); err != nil {
		return nil, nil, err
	}
	if know, ok := sys.Knowledge("db"); ok {
		fmt.Printf("mined %d AFDs (%d pruned by the AKey rule) from a %d-tuple sample\n",
			len(know.AFDs.AFDs), len(know.AFDs.Pruned), smpl.Len())
	}
	return sys, db, nil
}

func run(csvPath string, n int, seed int64, incmp, smplFrac float64, attr, value, where, sql string, alpha float64, k, limit int, explain bool, res resilience) error {
	sys, db, err := setup(csvPath, n, seed, incmp, smplFrac, alpha, k, res)
	if err != nil {
		return err
	}
	if know, ok := sys.Knowledge("db"); ok && attr != "" {
		if best, ok := know.AFDs.Best(attr); ok {
			fmt.Printf("best AFD for %s: %s\n", attr, best)
		}
	}

	var (
		q    qpiad.Query
		stmt *qpiad.Statement
	)
	if sql != "" {
		st, err := qpiad.ParseSQL(sql)
		if err != nil {
			return err
		}
		if err := st.CoerceTypes(db.Schema); err != nil {
			return err
		}
		q = st.Query
		q.Relation = "db"
		if q.Agg != nil {
			fmt.Printf("\naggregate query: %s\n", q)
			return printAggregate(os.Stdout, sys, q)
		}
		stmt = st
	} else {
		var err error
		q, err = buildQuery(db.Schema, attr, value, where)
		if err != nil {
			return err
		}
	}
	fmt.Printf("\nquery: %s\n\n", q)
	rs, err := sys.Query("db", q)
	if err != nil {
		return err
	}
	if stmt != nil {
		if rs, err = applyStatement(rs, stmt, db.Schema); err != nil {
			return err
		}
	}
	printResult(os.Stdout, rs, limit, explain)
	if st, ok := sys.SourceStats("db"); ok {
		fmt.Printf("\nsource accounting: %d queries, %d tuples transferred\n", st.Queries, st.TuplesReturned)
	}
	if res.stats {
		printMetrics(sys, "db")
	}
	return nil
}

// runStream executes the query through the streaming executor, printing
// answers the moment they arrive and a savings summary at the end. With
// -top N the mediator stops querying the source once N possible answers
// are delivered (the confidence bound makes the delivered prefix exact).
func runStream(csvPath string, n int, seed int64, incmp, smplFrac float64, attr, value, where, sql string, alpha float64, k, limit int, explain bool, res resilience) error {
	sys, db, err := setup(csvPath, n, seed, incmp, smplFrac, alpha, k, res)
	if err != nil {
		return err
	}

	var q qpiad.Query
	if sql != "" {
		st, err := qpiad.ParseSQL(sql)
		if err != nil {
			return err
		}
		if err := st.CoerceTypes(db.Schema); err != nil {
			return err
		}
		switch {
		case st.Query.Agg != nil:
			return fmt.Errorf("-stream does not support aggregate queries")
		case len(st.Order) > 0 || st.Limit > 0:
			return fmt.Errorf("-stream does not support ORDER BY / LIMIT: answers arrive in confidence rank order")
		}
		q = st.Query
		q.Relation = "db"
	} else {
		q, err = buildQuery(db.Schema, attr, value, where)
		if err != nil {
			return err
		}
	}
	fmt.Printf("\nquery (streaming): %s\n", q)

	start := time.Now()
	events, err := sys.QueryStream(context.Background(), "db", q)
	if err != nil {
		return err
	}
	var (
		firstAnswer time.Duration
		answers     int
		printed     int
		sum         *qpiad.StreamSummary
	)
	for ev := range events {
		switch ev.Kind {
		case qpiad.StreamEventAnswer:
			if answers == 0 {
				firstAnswer = time.Since(start)
			}
			answers += len(ev.Answers)
			for _, a := range ev.Answers {
				if printed == limit {
					fmt.Println("  ... (further answers not shown)")
				}
				if printed++; printed > limit {
					break
				}
				tag := "possible"
				switch {
				case a.Certain:
					tag = "certain"
				case ev.Unranked:
					tag = "unranked"
				}
				if ev.Stale {
					tag += " STALE"
				}
				fmt.Printf("  [%s %.3f] %s\n", tag, a.Confidence, a.Tuple)
				if explain && !a.Certain && a.Explanation != "" {
					fmt.Printf("          because: %s\n", a.Explanation)
				}
			}
		case qpiad.StreamEventRewrite:
			rq := ev.Rewrite
			switch {
			case rq.Err == nil:
				fmt.Printf("  -- rewrite %s: %d transferred, %d kept (precision %.3f)\n",
					rq.Query, rq.Transferred, rq.Kept, rq.Precision)
			case rq.Err == qpiad.ErrEarlyStop && rq.Attempts == 0:
				fmt.Printf("  -- rewrite %s: skipped (top-N bound met)\n", rq.Query)
			case rq.Err == qpiad.ErrEarlyStop:
				fmt.Printf("  -- rewrite %s: cancelled (top-N bound met)\n", rq.Query)
			default:
				fmt.Printf("  -- rewrite %s: FAILED after %d attempts: %v\n", rq.Query, rq.Attempts, rq.Err)
			}
		case qpiad.StreamEventSummary:
			sum = ev.Summary
		case qpiad.StreamEventPanic:
			panic(ev.Panic)
		}
	}
	total := time.Since(start)
	if sum == nil {
		return fmt.Errorf("stream ended without a summary")
	}
	rs := sum.Result
	fmt.Printf("\n%d certain, %d possible, %d unranked answers; %d of %d generated rewrites issued\n",
		len(rs.Certain), len(rs.Possible), len(rs.Unranked), len(rs.Issued), rs.Generated)
	fmt.Printf("time to first answer: %v (total %v)\n", firstAnswer.Round(time.Microsecond), total.Round(time.Microsecond))
	if sum.EarlyStopped {
		fmt.Printf("early stop: %d rewrites skipped, %d cancelled, ~%.0f tuples not transferred\n",
			sum.SkippedRewrites, sum.CancelledRewrites, sum.EstSavedTuples)
	}
	if rs.Stale {
		fmt.Printf("NOTE: circuit open — served STALE cached answers (age %v)\n", rs.StaleAge.Round(time.Millisecond))
	}
	if rs.Degraded {
		fmt.Println("WARNING: result degraded — some rewrites failed; possible answers may be incomplete")
	}
	if st, ok := sys.SourceStats("db"); ok {
		fmt.Printf("source accounting: %d queries, %d tuples transferred\n", st.Queries, st.TuplesReturned)
	}
	if res.stats {
		printMetrics(sys, "db")
	}
	return nil
}

// printMetrics dumps the full per-source accounting behind -stats.
func printMetrics(sys *qpiad.System, name string) {
	mt, ok := sys.SourceMetrics(name)
	if !ok {
		return
	}
	fmt.Printf("\nsource metrics (%s):\n", name)
	fmt.Printf("  queries=%d retries=%d errors=%d rejected=%d breaker-rejected=%d tuples=%d\n",
		mt.Queries, mt.Retries, mt.Errors, mt.Rejected, mt.BreakerRejected, mt.TuplesReturned)
	fmt.Printf("  latency: n=%d p50<=%v p90<=%v p99<=%v\n",
		mt.Latency.Count, mt.Latency.Percentile(0.50), mt.Latency.Percentile(0.90), mt.Latency.Percentile(0.99))
	if bs, ok := sys.BreakerSnapshot(name); ok {
		fmt.Printf("  breaker: state=%s health=%.3f window-fail=%.2f trips=%d rejections=%d probes=%d\n",
			bs.State, bs.Health, bs.WindowFailRate, bs.Trips, bs.Rejections, bs.Probes)
	}
	if fs, ok := sys.FaultStats(name); ok {
		fmt.Printf("  faults dealt: %d transient (%d flap), %d timeout, %d truncation (%d decisions)\n",
			fs.Transients, fs.FlapFailures, fs.Timeouts, fs.Truncations, fs.Decisions)
	}
	cs := sys.CacheStats()
	fmt.Printf("  answer cache: %d hits, %d misses, %d evictions, %d coalesced (%d entries)\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Coalesced, cs.Entries)
	fmt.Printf("  staleness: %d expired, %d stale hits, %d stale answers served\n",
		cs.Expired, cs.StaleHits, sys.StaleServed())
}

// emit writes best-effort output. The writer is the user's terminal (or a
// test buffer); once it dies there is nowhere left to report a write
// failure, so the error is deliberately dropped in this one place.
func emit(out io.Writer, format string, args ...any) {
	//lint:allow errdrop output is best-effort: a dead terminal leaves nowhere to report the error
	fmt.Fprintf(out, format, args...)
}

// repl reads SQL statements line by line and executes each against the
// learned system, printing certain and ranked possible answers. Blank
// lines and lines starting with -- are skipped; \q or EOF exits.
func repl(sys *qpiad.System, db *qpiad.Relation, in io.Reader, out io.Writer, limit int, explain bool) error {
	emit(out, "qpiad> enter SQL (FROM db); \\q to quit\n")
	scanner := bufio.NewScanner(in)
	for {
		emit(out, "qpiad> ")
		if !scanner.Scan() {
			emit(out, "\n")
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
			continue
		case line == `\q` || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return nil
		}
		if err := execSQL(sys, db, line, out, limit, explain); err != nil {
			emit(out, "error: %v\n", err)
		}
	}
}

// execSQL parses and executes one statement, printing to out.
func execSQL(sys *qpiad.System, db *qpiad.Relation, sql string, out io.Writer, limit int, explain bool) error {
	st, err := qpiad.ParseSQL(sql)
	if err != nil {
		return err
	}
	if err := st.CoerceTypes(db.Schema); err != nil {
		return err
	}
	q := st.Query
	q.Relation = "db"
	if q.Agg != nil {
		return printAggregate(out, sys, q)
	}
	rs, err := sys.Query("db", q)
	if err != nil {
		return err
	}
	if rs, err = applyStatement(rs, st, db.Schema); err != nil {
		return err
	}
	printResult(out, rs, limit, explain)
	return nil
}

// applyStatement applies a selection statement's ORDER BY, LIMIT and
// projection to its result, in that order, so -sql and the -repl shell
// answer the same statement alike. ORDER BY sorts within each section and
// LIMIT caps each section; a cached result's sections are shared, so
// SortBy sorts copies and the cap reslices.
func applyStatement(rs *qpiad.ResultSet, st *qpiad.Statement, s *qpiad.Schema) (*qpiad.ResultSet, error) {
	if len(st.Order) > 0 {
		cmp, err := st.Comparator(s)
		if err != nil {
			return nil, err
		}
		rs.SortBy(cmp)
	}
	if n := st.Limit; n > 0 {
		trim := func(a []qpiad.Answer) []qpiad.Answer {
			if len(a) > n {
				return a[:n:n]
			}
			return a
		}
		rs.Certain, rs.Possible, rs.Unranked = trim(rs.Certain), trim(rs.Possible), trim(rs.Unranked)
	}
	if len(st.Projection) == 0 {
		return rs, nil
	}
	projected, _, err := rs.Project(s, st.Projection)
	return projected, err
}

// printResult prints a selection result for -sql and the -repl shell
// alike: the stale note, the answer sections, the issued rewrites with
// the failed ones marked, the transfer open circuits saved, and the
// degraded warning.
func printResult(out io.Writer, rs *qpiad.ResultSet, limit int, explain bool) {
	if rs.Stale {
		emit(out, "NOTE: circuit open — serving STALE cached answers (age %v)\n", rs.StaleAge.Round(time.Millisecond))
	}
	emit(out, "-- certain (%d) --\n", len(rs.Certain))
	printAnswers(out, rs.Certain, limit, false)
	emit(out, "-- possible (%d, ranked) --\n", len(rs.Possible))
	printAnswers(out, rs.Possible, limit, explain)
	if len(rs.Unranked) > 0 {
		emit(out, "-- unranked (multiple nulls on constrained attributes: %d) --\n", len(rs.Unranked))
		printAnswers(out, rs.Unranked, limit, false)
	}
	emit(out, "issued %d rewritten queries (of %d generated):\n", len(rs.Issued), rs.Generated)
	for _, rq := range rs.Issued {
		if rq.Err != nil {
			emit(out, "  %-60s FAILED after %d attempts: %v\n", rq.Query, rq.Attempts, rq.Err)
			continue
		}
		emit(out, "  %-60s precision=%.3f estSel=%.1f F=%.3f\n", rq.Query, rq.Precision, rq.EstSel, rq.F)
	}
	if rs.EstSavedTuples > 0 {
		emit(out, "open-circuit skips saved ~%.0f tuples of transfer\n", rs.EstSavedTuples)
	}
	if rs.Degraded {
		emit(out, "WARNING: result degraded — some rewrites failed; possible answers may be incomplete\n")
	}
}

// printAnswers prints the first limit answers and how many more there are.
func printAnswers(out io.Writer, answers []qpiad.Answer, limit int, explain bool) {
	for i, a := range answers {
		if i >= limit {
			emit(out, "  ... and %d more\n", len(answers)-limit)
			return
		}
		emit(out, "  [%.3f] %s\n", a.Confidence, a.Tuple)
		if explain && a.Explanation != "" {
			emit(out, "          because: %s\n", a.Explanation)
		}
	}
	if len(answers) == 0 {
		emit(out, "  (none)\n")
	}
}

// printAggregate answers an aggregate query over the certain answers only
// and again with QPIAD's predicted contributions, and prints both totals
// and, when rewrites failed, the degraded warning.
func printAggregate(out io.Writer, sys *qpiad.System, q qpiad.Query) error {
	plain, err := sys.QueryAggregate("db", q, qpiad.AggOptions{})
	if err != nil {
		return err
	}
	pred, err := sys.QueryAggregate("db", q, qpiad.AggOptions{
		IncludePossible: true,
		PredictMissing:  true,
		Rule:            qpiad.RuleArgmax,
	})
	if err != nil {
		return err
	}
	emit(out, "certain answers only: %.2f (%d rows)\n", plain.Total, plain.CertainRows)
	emit(out, "with prediction:      %.2f (%d certain + %d possible rows, %d rewrites combined)\n",
		pred.Total, pred.CertainRows, pred.PossibleRows, len(pred.Included))
	if pred.Degraded {
		emit(out, "WARNING: result degraded — %d rewrites failed; the total may miss possible rows\n", len(pred.Failed))
	}
	return nil
}

func buildQuery(s *qpiad.Schema, attr, value, where string) (qpiad.Query, error) {
	q := qpiad.NewQuery("db")
	addPred := func(a, v string) error {
		kind, ok := s.KindOf(a)
		if !ok {
			return fmt.Errorf("no attribute %q in schema %s", a, s)
		}
		var val qpiad.Value
		switch kind {
		case qpiad.KindInt:
			i, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return fmt.Errorf("attribute %q wants an integer: %w", a, err)
			}
			val = qpiad.Int(i)
		case qpiad.KindFloat:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("attribute %q wants a float: %w", a, err)
			}
			val = qpiad.Float(f)
		default:
			val = qpiad.String(v)
		}
		q = q.With(qpiad.Eq(a, val))
		return nil
	}
	if err := addPred(attr, value); err != nil {
		return q, err
	}
	if where != "" {
		for _, clause := range strings.Split(where, ",") {
			a, v, found := strings.Cut(strings.TrimSpace(clause), "=")
			if !found {
				return q, fmt.Errorf("bad -where clause %q (want attr=value)", clause)
			}
			if err := addPred(strings.TrimSpace(a), strings.TrimSpace(v)); err != nil {
				return q, err
			}
		}
	}
	return q, nil
}
