package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The CI benchmark gate finally gets tests of its own: the parser, the
// manifest reader's failure modes (missing baseline file, malformed
// JSON), and the gate's threshold semantics — including the exact-
// threshold boundary, which must pass.

func TestParseBenchOutput(t *testing.T) {
	out := `
goos: linux
BenchmarkFoo-8        123    4567 ns/op    89 B/op
BenchmarkBar-8        10     123.5 ns/op
BenchmarkNoMatch      garbage
PASS
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if r := got["BenchmarkFoo"]; r.Iterations != 123 || r.NsPerOp != 4567 {
		t.Fatalf("BenchmarkFoo = %+v (GOMAXPROCS suffix must be stripped)", r)
	}
	if r := got["BenchmarkBar"]; r.NsPerOp != 123.5 {
		t.Fatalf("BenchmarkBar = %+v", r)
	}
}

// TestParseKeepsNamesEndingInDigits: a sub-benchmark whose own name
// ends in -<digits> keys the same on a 1-CPU host, where go test appends
// nothing, as on a 2-CPU host, where it appends -2 to every name.
func TestParseKeepsNamesEndingInDigits(t *testing.T) {
	dir := t.TempDir()
	for file, out := range map[string]string{
		"1cpu.out": "BenchmarkX/width-4    100    500 ns/op\nBenchmarkY    10    900 ns/op\n",
		"2cpu.out": "BenchmarkX/width-4-2    100    500 ns/op\nBenchmarkY-2    10    900 ns/op\n",
	} {
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parse(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if names := sortedNames(got); !slices.Equal(names, []string{"BenchmarkX/width-4", "BenchmarkY"}) {
			t.Errorf("%s: keys %v, want BenchmarkX/width-4 and BenchmarkY", file, names)
		}
	}
}

func TestParseMemoryColumns(t *testing.T) {
	out := `
BenchmarkRoundTrip-8     5000    210042 ns/op    41216 B/op    97 allocs/op
BenchmarkThroughput-8    1000    1000 ns/op    512.00 MB/s    0 B/op    0 allocs/op
BenchmarkTimeOnly-8      100     5000 ns/op
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if r := got["BenchmarkRoundTrip"]; r.BytesPerOp == nil || *r.BytesPerOp != 41216 || r.AllocsPerOp == nil || *r.AllocsPerOp != 97 {
		t.Fatalf("BenchmarkRoundTrip = %+v, want 41216 B/op and 97 allocs/op", r)
	}
	if r := got["BenchmarkThroughput"]; r.AllocsPerOp == nil || *r.AllocsPerOp != 0 || *r.BytesPerOp != 0 {
		t.Fatalf("BenchmarkThroughput = %+v, want a reported 0 allocs/op past the MB/s column", r)
	}
	if r := got["BenchmarkTimeOnly"]; r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatalf("BenchmarkTimeOnly = %+v, want no memory fields", r)
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	allocs := func(ns, n float64) Result { return Result{Iterations: 1, NsPerOp: ns, AllocsPerOp: &n} }
	base := map[string]Result{
		"BenchmarkAtBound": allocs(100, 100),
		"BenchmarkOver":    allocs(100, 100),
		"BenchmarkFromNil": {Iterations: 1, NsPerOp: 100}, // baseline predates allocs gating
		"BenchmarkZero":    allocs(100, 0),
	}
	cur := map[string]Result{
		"BenchmarkAtBound": allocs(100, 110), // exactly ×1.10 passes
		"BenchmarkOver":    allocs(90, 111),  // faster, but allocates more
		"BenchmarkFromNil": allocs(100, 5000),
		"BenchmarkZero":    allocs(100, 1), // a 0-alloc path that starts allocating
	}
	regressions, _, _ := compare(cur, base, 1.25)
	if len(regressions) != 2 || !strings.Contains(regressions[0], "BenchmarkOver") || !strings.Contains(regressions[0], "allocs/op") ||
		!strings.Contains(regressions[1], "BenchmarkZero") {
		t.Fatalf("regressions = %v, want BenchmarkOver and BenchmarkZero on allocs/op", regressions)
	}
}

func TestParseBestOfN(t *testing.T) {
	// `go test -bench -count=3` repeats each name; the gate keys on the
	// best (minimum) ns/op so one noisy run cannot fail CI.
	out := `
BenchmarkFoo-8    100    5000 ns/op
BenchmarkFoo-8    120    4200 ns/op
BenchmarkFoo-8    110    4900 ns/op
BenchmarkBar-8    50     900 ns/op
BenchmarkBar-8    40     1100 ns/op
PASS
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	if r := got["BenchmarkFoo"]; r.NsPerOp != 4200 || r.Iterations != 120 {
		t.Fatalf("BenchmarkFoo = %+v, want the fastest of three runs (4200 ns/op)", r)
	}
	if r := got["BenchmarkBar"]; r.NsPerOp != 900 {
		t.Fatalf("BenchmarkBar = %+v, want the fastest of two runs (900 ns/op)", r)
	}
}

func TestReadManifestMissingFile(t *testing.T) {
	if _, err := readManifest(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing baseline file did not error")
	}
}

func TestReadManifestMalformedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"BenchmarkFoo": {`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readManifest(path)
	if err == nil {
		t.Fatal("malformed JSON did not error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name the offending file: %v", err)
	}
}

func TestCompareThresholdSemantics(t *testing.T) {
	base := map[string]Result{
		"BenchmarkExact":    {NsPerOp: 100},
		"BenchmarkOver":     {NsPerOp: 100},
		"BenchmarkFaster":   {NsPerOp: 100},
		"BenchmarkRetired":  {NsPerOp: 100},
		"BenchmarkUnmoved":  {NsPerOp: 100},
		"BenchmarkJustOver": {NsPerOp: 100},
	}
	current := map[string]Result{
		"BenchmarkExact":    {NsPerOp: 125},     // exactly threshold: passes
		"BenchmarkOver":     {NsPerOp: 200},     // 2.00x: regression
		"BenchmarkJustOver": {NsPerOp: 125.001}, // barely over: regression
		"BenchmarkFaster":   {NsPerOp: 50},      // 2x faster: improved
		"BenchmarkUnmoved":  {NsPerOp: 101},
		"BenchmarkNew":      {NsPerOp: 10}, // present only here: unmatched
	}
	regressions, improved, onlyOne := compare(current, base, 1.25)

	// A baseline key the run lacks fails the gate; a new benchmark only
	// shows.
	if len(regressions) != 3 {
		t.Fatalf("regressions = %v, want BenchmarkJustOver, BenchmarkOver and BenchmarkRetired", regressions)
	}
	for _, s := range regressions {
		if !strings.HasPrefix(s, "BenchmarkOver") && !strings.HasPrefix(s, "BenchmarkJustOver") && !strings.HasPrefix(s, "BenchmarkRetired") {
			t.Fatalf("unexpected regression %q", s)
		}
	}
	if len(improved) != 1 || !strings.HasPrefix(improved[0], "BenchmarkFaster") {
		t.Fatalf("improved = %v", improved)
	}
	if len(onlyOne) != 1 || onlyOne[0] != "BenchmarkNew (new)" {
		t.Fatalf("unmatched = %v", onlyOne)
	}
}

// TestCompareFailsOnBenchmarkThatStoppedRunning: a bench.out with one
// baseline benchmark missing — the way a panic ends a package's
// benchmark binary — fails the gate, and a reference key
// (name@parent-<sha>), which no run holds, does not.
func TestCompareFailsOnBenchmarkThatStoppedRunning(t *testing.T) {
	full := `BenchmarkSparseRunRoundTrip-2   	    1000	    433633 ns/op	  92914 B/op	     35 allocs/op
BenchmarkShardBoot/regen-2      	      20	  41400000 ns/op
BenchmarkShardBoot/mmap-2       	     500	    280000 ns/op
`
	base, err := parse(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	base["BenchmarkShardBoot/regen@parent-7191183"] = Result{NsPerOp: 1}
	cut := strings.Join(slices.Delete(strings.SplitAfter(full, "\n"), 0, 1), "")
	current, err := parse(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	regressions, _, _ := compare(current, base, 1.25)
	if len(regressions) != 1 || !strings.HasPrefix(regressions[0], "BenchmarkSparseRunRoundTrip: in the baseline but not in this run") {
		t.Fatalf("regressions = %v, want the missing BenchmarkSparseRunRoundTrip alone", regressions)
	}
	if regressions, _, _ := compare(base, base, 1.25); len(regressions) != 0 {
		t.Fatalf("a full run regressed: %v", regressions)
	}
}

func TestCompareExactThresholdIsNotRegression(t *testing.T) {
	// The boundary case in isolation: ratio == threshold must pass — the
	// gate fails only on strictly worse.
	regressions, improved, onlyOne := compare(
		map[string]Result{"BenchmarkEdge": {NsPerOp: 125}},
		map[string]Result{"BenchmarkEdge": {NsPerOp: 100}},
		1.25,
	)
	if len(regressions) != 0 || len(improved) != 0 || len(onlyOne) != 0 {
		t.Fatalf("exact threshold misclassified: reg=%v imp=%v un=%v", regressions, improved, onlyOne)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	in := map[string]Result{"BenchmarkA": {Iterations: 7, NsPerOp: 42.5}}
	if err := writeManifest(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if out["BenchmarkA"] != in["BenchmarkA"] {
		t.Fatalf("round trip changed manifest: %+v", out)
	}
}

func TestAssertFasterHoldsAndViolates(t *testing.T) {
	run := map[string]Result{
		"BenchmarkGEMM/vector":  {NsPerOp: 450_000},
		"BenchmarkGEMM/generic": {NsPerOp: 2_800_000},
		"BenchmarkRow/int8-vec": {NsPerOp: 33},
		"BenchmarkRow/int8":     {NsPerOp: 27},
	}
	violations, err := assertFaster(run, "BenchmarkGEMM/vector<BenchmarkGEMM/generic")
	if err != nil || len(violations) != 0 {
		t.Fatalf("holding assertion reported violations %v (err %v)", violations, err)
	}
	// Multiple pairs, one of which fails: the violation names both sides
	// with their measured values.
	violations, err = assertFaster(run,
		"BenchmarkGEMM/vector<BenchmarkGEMM/generic, BenchmarkRow/int8-vec<BenchmarkRow/int8")
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "BenchmarkRow/int8-vec") ||
		!strings.Contains(violations[0], "BenchmarkRow/int8 ") {
		t.Fatalf("violations = %v, want one naming both sides", violations)
	}
}

func TestAssertFasterTiesViolate(t *testing.T) {
	// "Faster" means strictly faster: a tie means the vectorized kernel
	// bought nothing, which is exactly what the assertion exists to catch.
	run := map[string]Result{"BenchmarkA": {NsPerOp: 100}, "BenchmarkB": {NsPerOp: 100}}
	violations, err := assertFaster(run, "BenchmarkA<BenchmarkB")
	if err != nil || len(violations) != 1 {
		t.Fatalf("tie not flagged: %v (err %v)", violations, err)
	}
}

func TestAssertFasterMissingNameErrors(t *testing.T) {
	// A renamed benchmark must break the assertion loudly, not let it
	// keep vacuously passing.
	run := map[string]Result{"BenchmarkA": {NsPerOp: 1}}
	for _, spec := range []string{
		"BenchmarkGone<BenchmarkA", // left side missing
		"BenchmarkA<BenchmarkGone", // right side missing
		"BenchmarkA",               // malformed: no '<'
		"<BenchmarkA",              // malformed: empty side
	} {
		if _, err := assertFaster(run, spec); err == nil {
			t.Errorf("assertFaster(%q) did not error", spec)
		}
	}
}
