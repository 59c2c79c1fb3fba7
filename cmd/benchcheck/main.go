// Command benchcheck turns `go test -bench` output into a JSON
// benchmark manifest and gates CI on regressions against a committed
// baseline.
//
// Modes:
//
//	benchcheck -in bench.out -out BENCH_ci.json                      # parse only
//	benchcheck -in bench.out -out BENCH_baseline.json -update        # (re)write the baseline
//	benchcheck -in bench.out -out BENCH_ci.json \
//	    -baseline BENCH_baseline.json -threshold 1.25                # gate: fail >25% slower
//	benchcheck -in bench.out \
//	    -assert-faster 'BenchmarkDenseGEMM/vector<BenchmarkDenseGEMM/generic'
//	                                                # gate: fail unless A beats B in this run
//
// Comparison keys on ns/op per benchmark name (GOMAXPROCS suffix
// stripped, so a differently-sized CI runner still matches names).
// When a name repeats — `go test -bench -count=N` — the best (minimum)
// ns/op wins: the minimum estimates the workload's true cost, while the
// other runs mostly measure scheduler noise on a shared CI box.
// Benchmarks that report memory (b.ReportAllocs or -benchmem) also carry
// B/op and allocs/op into the manifest, and allocs/op is gated at
// baseline × 1.10 whatever -threshold says: an allocation count is a
// property of the code, not of the runner, so it gets the tight bound.
// Benchmarks present on only one side are reported but never fail the
// gate — adding or retiring a benchmark is not a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g. "BenchmarkFoo-8   123   4567 ns/op   89 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

// memFields match the memory columns of a line that has them; custom
// metrics (MB/s, GFLOP/s) may sit between them and ns/op.
var (
	bytesField  = regexp.MustCompile(`\s([\d.]+) B/op`)
	allocsField = regexp.MustCompile(`\s([\d.]+) allocs/op`)
)

// allocsThreshold is how far allocs/op may exceed its baseline.
const allocsThreshold = 1.10

// Result is one benchmark's manifest entry. The memory fields are absent
// for benchmarks that do not report them.
type Result struct {
	Iterations  int      `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark output to parse (default stdin)")
		out       = flag.String("out", "", "JSON manifest to write")
		baseline  = flag.String("baseline", "", "baseline manifest to gate against (optional)")
		threshold = flag.Float64("threshold", 1.25, "fail when current ns/op exceeds baseline × threshold")
		update    = flag.Bool("update", false, "treat -out as a fresh baseline (no gating)")
		faster    = flag.String("assert-faster", "", "comma-separated 'A<B' pairs: fail unless benchmark A's ns/op is strictly below B's in this run")
	)
	flag.Parse()

	src := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	current, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	if *out != "" {
		if err := writeManifest(*out, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(current), *out)
	}
	// Within-run ordering assertions are independent of the baseline:
	// they compare two names from the same bench.out, so they run even
	// in -update mode (a baseline refresh must not smuggle in a world
	// where the vectorized kernel lost to the scalar one).
	if *faster != "" {
		violations, err := assertFaster(current, *faster)
		if err != nil {
			fatal(err)
		}
		if len(violations) > 0 {
			for _, s := range violations {
				fmt.Fprintln(os.Stderr, "benchcheck: ORDER VIOLATION:", s)
			}
			os.Exit(1)
		}
		fmt.Printf("benchcheck: %d ordering assertions hold\n", len(strings.Split(*faster, ",")))
	}
	if *update || *baseline == "" {
		return
	}

	base, err := readManifest(*baseline)
	if err != nil {
		fatal(err)
	}
	regressions, improved, onlyOne := compare(current, base, *threshold)
	for _, s := range improved {
		fmt.Println("benchcheck: improved:", s)
	}
	for _, s := range onlyOne {
		fmt.Println("benchcheck: unmatched:", s)
	}
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintln(os.Stderr, "benchcheck: REGRESSION:", s)
		}
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmarks within %.2fx of baseline\n", len(current), *threshold)
}

// compare gates current against base: a benchmark regresses when its
// ns/op strictly exceeds baseline × threshold (landing exactly on the
// threshold passes) or, where both sides report it, its allocs/op
// strictly exceeds baseline × allocsThreshold; it improves when it beats
// baseline ÷ threshold; and a name present on only one side is reported
// but never fails the gate.
func compare(current, base map[string]Result, threshold float64) (regressions, improved, onlyOne []string) {
	for _, name := range sortedNames(current) {
		cur := current[name]
		b, ok := base[name]
		if !ok {
			onlyOne = append(onlyOne, name+" (new)")
			continue
		}
		ratio := cur.NsPerOp / b.NsPerOp
		switch {
		case ratio > threshold:
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx)",
				name, b.NsPerOp, cur.NsPerOp, ratio, threshold))
		case ratio < 1/threshold:
			improved = append(improved, fmt.Sprintf("%s: %.2fx faster", name, 1/ratio))
		}
		if cur.AllocsPerOp != nil && b.AllocsPerOp != nil && *cur.AllocsPerOp > *b.AllocsPerOp*allocsThreshold {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f allocs/op (> %.2fx)",
				name, *b.AllocsPerOp, *cur.AllocsPerOp, allocsThreshold))
		}
	}
	for _, name := range sortedNames(base) {
		if _, ok := current[name]; !ok {
			onlyOne = append(onlyOne, name+" (removed)")
		}
	}
	return regressions, improved, onlyOne
}

// assertFaster evaluates a comma-separated list of 'A<B' pairs against
// one run's results: every pair must name two benchmarks present in the
// run, and A's ns/op must be strictly below B's. Unlike the baseline
// gate, a missing name here is an error — an assertion that silently
// stops matching anything would otherwise keep "passing" after a
// benchmark rename.
func assertFaster(current map[string]Result, spec string) (violations []string, err error) {
	for _, pair := range strings.Split(spec, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(pair), "<")
		if !ok || a == "" || b == "" {
			return nil, fmt.Errorf("bad -assert-faster pair %q (want 'A<B')", pair)
		}
		ra, okA := current[a]
		rb, okB := current[b]
		if !okA {
			return nil, fmt.Errorf("-assert-faster: %q not found in this run", a)
		}
		if !okB {
			return nil, fmt.Errorf("-assert-faster: %q not found in this run", b)
		}
		if ra.NsPerOp >= rb.NsPerOp {
			violations = append(violations, fmt.Sprintf("%s (%.2f ns/op) is not faster than %s (%.2f ns/op)",
				a, ra.NsPerOp, b, rb.NsPerOp))
		}
	}
	return violations, nil
}

func parse(f io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, _ := strconv.Atoi(m[2])
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		// Best-of-N: -count=N repeats a name; keep the fastest run.
		if prev, ok := out[m[1]]; ok && prev.NsPerOp <= ns {
			continue
		}
		out[m[1]] = Result{
			Iterations: iters, NsPerOp: ns,
			BytesPerOp: memField(bytesField, sc.Text()), AllocsPerOp: memField(allocsField, sc.Text()),
		}
	}
	return out, sc.Err()
}

// memField extracts one memory column from a benchmark line, nil when
// the line has none.
func memField(re *regexp.Regexp, line string) *float64 {
	m := re.FindStringSubmatch(line)
	if m == nil {
		return nil
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return nil
	}
	return &v
}

func readManifest(path string) (map[string]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out map[string]Result
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func writeManifest(path string, results map[string]Result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedNames(m map[string]Result) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
