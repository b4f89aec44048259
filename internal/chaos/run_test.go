package chaos

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// smallConfig is a fast chaos run for tests: a shrunken world and window,
// but the full event set (two server bounces, source crash, flap,
// knowledge corrupt/reload, clock skew).
func smallConfig(t *testing.T, seed int64) Config {
	t.Helper()
	return Config{
		Seed:          seed,
		Scenario:      Generate(seed, 1500*time.Millisecond),
		DataN:         400,
		Warmup:        300 * time.Millisecond,
		Recovery:      time.Second,
		ProbeInterval: 10 * time.Millisecond,
		// The race-enabled full suite saturates the machine; with the
		// default 1s deadline honest queueing delay reads as downtime.
		ProbeTimeout: 5 * time.Second,
		LoadWorkers:  2,
		LoadRate:     30,
		Dir:          t.TempDir(),
		Logf:         t.Logf,
	}
}

func TestRunInvariantsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack chaos run")
	}
	rep, err := Run(context.Background(), smallConfig(t, 11))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("\n%s", rep.Summary())
	if !rep.Passed() {
		t.Fatalf("invariants failed:\n%s\nviolations: %q", rep.Summary(), rep.Violations)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations on a passing run: %q", rep.Violations)
	}
	if rep.Metrics.Probes == 0 {
		t.Fatal("prober recorded nothing")
	}
	// The scenario kills the server twice for ~50ms each; the prober must
	// have seen both the downtime and the recovery.
	if rep.Metrics.ProbesDown == 0 {
		t.Error("expected some down probes across two server bounces")
	}
	if rep.Metrics.AvailabilityPct <= 50 {
		t.Errorf("availability %.1f%% implausibly low", rep.Metrics.AvailabilityPct)
	}
	if rep.Metrics.Load == nil || rep.Metrics.Load.Issued == 0 {
		t.Error("loadgen fold missing from metrics")
	}
	if len(rep.Metrics.Events) != len(rep.Deterministic.Schedule) {
		t.Errorf("executed %d of %d scheduled events",
			len(rep.Metrics.Events), len(rep.Deterministic.Schedule))
	}
}

func TestRunDeterministicSection(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-stack chaos runs")
	}
	var canon [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(context.Background(), smallConfig(t, 23))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !rep.Passed() {
			t.Fatalf("run %d failed invariants:\n%s\nviolations: %q", i, rep.Summary(), rep.Violations)
		}
		b, err := rep.Deterministic.Canonical()
		if err != nil {
			t.Fatalf("run %d: canonical: %v", i, err)
		}
		canon = append(canon, b)
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Fatalf("same seed, different deterministic sections:\n%s\n%s", canon[0], canon[1])
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	_, err := Run(context.Background(), Config{
		Scenario: &Scenario{Name: "bad", DurationMs: 100,
			Events: []Event{{AtMs: 10, Action: ActServerRestart}}},
	})
	if err == nil {
		t.Fatal("Run accepted an invalid scenario")
	}
}
