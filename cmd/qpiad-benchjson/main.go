// Command qpiad-benchjson converts `go test -bench` output on stdin into a
// JSON benchmark baseline: a map from benchmark name (GOMAXPROCS suffix
// stripped) to ns/op, B/op and allocs/op. Committed baselines (e.g.
// BENCH_PR2.json) let later changes diff performance without re-reading raw
// bench logs.
//
// Usage:
//
//	go test -bench='Mine|WarmQuery' -benchmem . | qpiad-benchjson -o BENCH.json
//
// Lines that are not benchmark results (the "goos:"/"PASS" chatter) are
// ignored. A benchmark run with -count>1 has one line per run; each field
// of its result (ns/op, B/op, allocs/op and every custom metric) is the
// median of that field over its lines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark measurement.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric series ("queries/op",
	// "tuples/op", "ttfa-ns/op", ...) keyed by their unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	results, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "qpiad-benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qpiad-benchjson:", err)
			os.Exit(1)
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "qpiad-benchjson:", err)
		os.Exit(1)
	}
	// The file was written: a failed Close can mean lost output, so it is
	// an error, not a cleanup detail.
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "qpiad-benchjson:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		names := make([]string, 0, len(results))
		for n := range results {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s: %s\n",
			len(results), *out, strings.Join(names, ", "))
	}
}

// parse extracts benchmark result lines of the form
//
//	BenchmarkName-8   123   456789 ns/op   1024 B/op   12 allocs/op
//
// (the -benchmem columns are optional) and keeps, per benchmark, the
// median of its lines.
func parse(sc *bufio.Scanner) (map[string]result, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	runs := make(map[string][]result)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so baselines compare across hosts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var r result
		ok := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
				ok = true
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				// Custom b.ReportMetric units ("queries/op", "ttfa-ns/op").
				if strings.HasSuffix(unit, "/op") {
					if r.Extra == nil {
						r.Extra = make(map[string]float64)
					}
					r.Extra[unit] = v
					ok = true
				}
			}
		}
		if ok {
			runs[name] = append(runs[name], r)
		}
	}
	results := make(map[string]result, len(runs))
	for name, rs := range runs {
		results[name] = medianResult(rs)
	}
	return results, sc.Err()
}

// medianResult is the result whose every field is the median of that field
// over rs; a custom metric's median is over the lines that report it.
func medianResult(rs []result) result {
	var ns, bytes, allocs []float64
	extra := make(map[string][]float64)
	for _, r := range rs {
		ns = append(ns, r.NsPerOp)
		bytes = append(bytes, float64(r.BytesPerOp))
		allocs = append(allocs, float64(r.AllocsPerOp))
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	m := result{
		NsPerOp:     median(ns),
		BytesPerOp:  int64(math.Round(median(bytes))),
		AllocsPerOp: int64(math.Round(median(allocs))),
	}
	if len(extra) > 0 {
		m.Extra = make(map[string]float64, len(extra))
	}
	for unit, vs := range extra {
		m.Extra[unit] = median(vs)
	}
	return m
}

// median returns the middle of vs, or the mean of the two middle values
// when there is an even number; it sorts vs.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
