package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: qpiad
BenchmarkWarmQuery-8         	  521432	      2304 ns/op	    1184 B/op	      14 allocs/op
BenchmarkWarmQueryNoCache-8  	     860	   1401822 ns/op	  406512 B/op	    5120 allocs/op
BenchmarkMineKnowledge/workers=1-8 	      26	  44852011 ns/op
PASS
ok  	qpiad	12.3s
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(got), got)
	}
	warm := got["BenchmarkWarmQuery"]
	if warm.NsPerOp != 2304 || warm.BytesPerOp != 1184 || warm.AllocsPerOp != 14 {
		t.Errorf("BenchmarkWarmQuery = %+v", warm)
	}
	mine := got["BenchmarkMineKnowledge/workers=1"]
	if mine.NsPerOp != 44852011 || mine.BytesPerOp != 0 {
		t.Errorf("BenchmarkMineKnowledge/workers=1 = %+v", mine)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	in := `BenchmarkStreamVsBatch/stream-top-8   100   8204511 ns/op   11.0 queries/op   640471 ttfa-ns/op   512 tuples/op   40960 B/op   512 allocs/op
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got["BenchmarkStreamVsBatch/stream-top"]
	if !ok {
		t.Fatalf("missing result: %+v", got)
	}
	if r.NsPerOp != 8204511 || r.BytesPerOp != 40960 || r.AllocsPerOp != 512 {
		t.Errorf("standard columns = %+v", r)
	}
	want := map[string]float64{"queries/op": 11, "ttfa-ns/op": 640471, "tuples/op": 512}
	for unit, v := range want {
		if r.Extra[unit] != v {
			t.Errorf("Extra[%q] = %v, want %v", unit, r.Extra[unit], v)
		}
	}
	if len(r.Extra) != len(want) {
		t.Errorf("Extra = %v", r.Extra)
	}
}

// TestParseCountMedian checks that a benchmark run with -count keeps the
// median of each field over its lines, not the last line.
func TestParseCountMedian(t *testing.T) {
	in := `BenchmarkX-8   10   100 ns/op   64 B/op   1 allocs/op   7 ttfa-ns/op
BenchmarkX-8   10   300 ns/op   16 B/op   3 allocs/op   5 ttfa-ns/op
BenchmarkX-8   10   200 ns/op   32 B/op   2 allocs/op   9 ttfa-ns/op
BenchmarkY-8   10   100 ns/op
BenchmarkY-8   10   400 ns/op
`
	got, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	x := got["BenchmarkX"]
	if x.NsPerOp != 200 || x.BytesPerOp != 32 || x.AllocsPerOp != 2 || x.Extra["ttfa-ns/op"] != 7 {
		t.Errorf("BenchmarkX = %+v, want the medians 200 ns/op, 32 B/op, 2 allocs/op, 7 ttfa-ns/op", x)
	}
	if y := got["BenchmarkY"]; y.NsPerOp != 250 {
		t.Errorf("BenchmarkY = %+v, want 250 ns/op, the mean of its two lines", y)
	}
}

func TestParseEmpty(t *testing.T) {
	got, err := parse(bufio.NewScanner(strings.NewReader("PASS\nok qpiad 1s\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d results from non-bench input", len(got))
	}
}
