// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run the full suite in paper order
//	experiments -run fig6,tab3  # run selected experiments
//	experiments -list           # list experiment ids
//	experiments -requests 100   # tighter quantiles (slower)
//
// Output is a textual rendering of each table/figure, ending with one
// line per claim the sweeps judged; see DESIGN.md "Experiments" for the
// expected shapes and what is asserted in tests instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		requests = flag.Int("requests", 0, "requests per configuration (default 60)")
		warmup   = flag.Int("warmup", 0, "warmup requests per configuration (default 6)")
		seed     = flag.Int64("seed", 0, "workload/jitter seed (default 12345)")
		qps      = flag.Float64("qps", 0, "explicit rate for fig16 (default: derived)")
		outPath  = flag.String("out", "", "write output to a file instead of stdout")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	r := experiments.NewRunner(experiments.Params{
		Requests: *requests, Warmup: *warmup, Seed: *seed, QPS: *qps,
	})

	selected := experiments.All()
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}
	// One shared runner, so configuration runs are reused across figures;
	// the first failure stops the run.
	start := time.Now()
	for _, e := range selected {
		if err := e.Run(r, out); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
	}
	// Timing verdicts are reported, not enforced: the exit status stays 0.
	// An identity mismatch or a dropped span is an error above.
	if vs := r.Verdicts(); len(vs) > 0 {
		fmt.Fprintln(out, "\nverdicts:")
		for _, v := range vs {
			fmt.Fprintf(out, "  - %s\n", v)
		}
	}
	fmt.Fprintf(out, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
