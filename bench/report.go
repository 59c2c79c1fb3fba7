package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report prints every metric by name with its unit, and the sample
// counts beside the percentiles, for a person to read.
func report(w io.Writer, wl *spec, r *result, traced bool) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	fmt.Fprintf(w, "%s: attempted %d, succeeded %d, failed %d\n", wl.name, r.Attempted, r.Attempted-r.Failed, r.Failed)
	for _, d := range defs {
		note := r.notes[d.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-5s%s\n", d.name, r.Metrics[d.name].Value, d.unit, note)
	}
}

// record is one run's result as -out files keep it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path, workload string, seed int64, traced int, r *result) error {
	line, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: traced, result: *r})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet is the untraced records of one -out file: per workload and
// end-to-end metric, the values of its runs, and the failures seen.
type runSet struct {
	values    map[string]map[string][]float64
	failed    map[string]int
	attempted map[string]int
}

func readRunSet(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, failed: map[string]int{}, attempted: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], mv.Value)
		}
		rs.failed[rec.Workload] += rec.Failed
		rs.attempted[rec.Workload] += rec.Attempted
	}
	return rs, sc.Err()
}

func (rs *runSet) failedPct(workload string) float64 {
	if rs.attempted[workload] == 0 {
		return 0
	}
	return 100 * float64(rs.failed[workload]) / float64(rs.attempted[workload])
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each file's runs, their ratio with the parent as base, and whether the
// change is within the metric's bound. It reports false if any metric is
// outside its bound or failed_pct rose.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readRunSet(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRunSet(changePath)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %18s  %s\n", "workload", "metric", "parent", "change", "change/parent", "verdict")
	for _, wl := range workloads {
		pv, cv := parent.values[wl.name], change.values[wl.name]
		if pv == nil || cv == nil {
			continue
		}
		for _, d := range e2eMetrics {
			p, c := quantile(pv[d.name], 0.5), quantile(cv[d.name], 0.5)
			verdict := "ok"
			if worseBy(d, p, c) > d.bound {
				verdict = "outside bound"
				allOK = false
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %8.3f of %-8.4g  %s (bound %g)\n", wl.name, d.name, p, c, c/p, p, verdict, d.bound)
		}
		pf, cf := parent.failedPct(wl.name), change.failedPct(wl.name)
		verdict := "ok"
		if cf > pf {
			verdict = "outside bound"
			allOK = false
		}
		fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %18s  %s (no rise allowed)\n", wl.name, "failed_pct", pf, cf, "", verdict)
	}
	return allOK, nil
}

// worseBy is how much worse change is than parent, as a share of parent,
// in the metric's own direction; negative when change is better.
func worseBy(d metricDef, parent, change float64) float64 {
	if parent == 0 {
		return 0
	}
	if d.higher {
		return (parent - change) / parent
	}
	return (change - parent) / parent
}
