// Command bench is the repository's benchmark: it boots real
// loopback-TCP deployments, drives one of four named workloads at them
// from this process, checks every returned score against a control, and
// prints the end-to-end metrics (-trace 0) or the per-layer ladder
// (-trace 1) as one JSON object on the last line of standard output.
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Int64("seed", 1, "seed the request pool is generated from")
		seconds = flag.Int("seconds", 20, "how long the run measures")
		traced  = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer metrics of a traced run")
		out     = flag.String("out", "", "append the result, with its workload and seed, to this JSON-lines file")
		samples = flag.String("samples", "", "with -trace 0, write every timed request's send, done and CPU readings to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments, parent first")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: bench -compare parent.jsonl change.jsonl"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	// Everything the run writes goes under out/, ignored by git.
	if err := os.MkdirAll("out", 0o755); err != nil {
		fail(err)
	}
	d := time.Duration(*seconds) * time.Second
	var r *result
	var err error
	if *traced == 0 {
		r, err = runE2E(w, *seed, d, "out", *samples)
	} else {
		r, err = runTraced(w, *seed, d, "out")
	}
	if err != nil {
		fail(err)
	}
	report(os.Stderr, w, r, *traced != 0)
	if *out != "" {
		if err := appendRecord(*out, w.name, *seed, *traced, r); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
