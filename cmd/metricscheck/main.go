// Command metricscheck validates a live drmserve metrics endpoint: it
// fetches /metrics.json from the given base URL and checks the document
// against the export schema — a parseable RFC3339Nano timestamp, integer
// counters and gauges, and histogram summaries whose quantiles are
// ordered (p50 <= p95 <= p99 <= max), and a sparse shard's bag counters
// consistent (sparse.bags_present never above sparse.bags: a shard pools
// and ships a row only for a bag it was asked about). CI boots a
// deployment with
// -metrics-addr and runs this against it, so a schema drift in the obs
// exporter fails the build rather than a downstream dashboard.
//
// -require takes comma-separated requirements; each is a metric name
// (counter, gauge, or histogram) that must be present, optionally with
// a ">=N" floor on its value (histograms compare their observation
// count). A name carrying a {k=v,...} label set is a plain name here —
// commas inside the braces do not split:
//
//	metricscheck http://127.0.0.1:9100
//	metricscheck -require engine.requests http://127.0.0.1:9100
//	metricscheck -require 'frontend.completed>=100,engine.rpc.calls_per_request>=30' http://127.0.0.1:9100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// histDoc mirrors the obs exporter's per-histogram summary.
type histDoc struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// doc mirrors the top-level /metrics.json document.
type doc struct {
	At         string             `json:"at"`
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]int64   `json:"gauges"`
	Histograms map[string]histDoc `json:"histograms"`
}

func main() {
	var (
		require = flag.String("require", "", "comma-separated requirements: metric names that must be present, each optionally floored as name>=N")
		timeout = flag.Duration("timeout", 10*time.Second, "fetch timeout")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-require names] <base-url>")
		os.Exit(2)
	}
	url := strings.TrimSuffix(flag.Arg(0), "/") + "/metrics.json"

	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body))))
	}

	var d doc
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		fatal(fmt.Errorf("decoding %s: %w", url, err))
	}
	if err := validate(d); err != nil {
		fatal(err)
	}
	for _, spec := range splitRequirements(*require) {
		req, err := parseRequirement(spec)
		if err != nil {
			fatal(err)
		}
		if err := req.check(d); err != nil {
			fatal(fmt.Errorf("%w in %s", err, url))
		}
	}
	fmt.Printf("metricscheck: ok: %d counters, %d gauges, %d histograms at %s\n",
		len(d.Counters), len(d.Gauges), len(d.Histograms), d.At)
}

// validate checks the document's internal invariants.
func validate(d doc) error {
	if _, err := time.Parse(time.RFC3339Nano, d.At); err != nil {
		return fmt.Errorf("at %q is not RFC3339Nano: %w", d.At, err)
	}
	for name, c := range d.Counters {
		if c < 0 {
			return fmt.Errorf("counter %s = %d is negative", name, c)
		}
		// "<shard>.sparse.bags_present" counts the non-empty ones among
		// "<shard>.sparse.bags"; the shard adds to the total first.
		if shard, ok := strings.CutSuffix(name, ".sparse.bags_present"); ok {
			if bags, ok := d.Counters[shard+".sparse.bags"]; !ok || c > bags {
				return fmt.Errorf("counter %s = %d without a %s.sparse.bags at least as large (%d, present=%v)", name, c, shard, bags, ok)
			}
		}
	}
	for name, h := range d.Histograms {
		if h.Count < 0 {
			return fmt.Errorf("histogram %s count = %d is negative", name, h.Count)
		}
		if h.Count == 0 {
			continue
		}
		if h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max {
			return fmt.Errorf("histogram %s quantiles unordered: p50=%g p95=%g p99=%g max=%g",
				name, h.P50, h.P95, h.P99, h.Max)
		}
		if h.Mean < 0 || h.Max < 0 {
			return fmt.Errorf("histogram %s has negative summary: mean=%g max=%g", name, h.Mean, h.Max)
		}
	}
	return nil
}

// requirement is one -require entry: a metric that must be present,
// optionally with a floor on its value.
type requirement struct {
	name   string
	min    int64
	hasMin bool
}

// parseRequirement parses "name" or "name>=N".
func parseRequirement(s string) (requirement, error) {
	name, val, floored := strings.Cut(s, ">=")
	name = strings.TrimSpace(name)
	if name == "" {
		return requirement{}, fmt.Errorf("requirement %q has no metric name", s)
	}
	if !floored {
		return requirement{name: name}, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return requirement{}, fmt.Errorf("requirement %q: bad floor %q", s, val)
	}
	return requirement{name: name, min: n, hasMin: true}, nil
}

// check enforces the requirement against the document.
func (r requirement) check(d doc) error {
	v, ok := value(d, r.name)
	if !ok {
		return fmt.Errorf("required metric %q absent", r.name)
	}
	if r.hasMin && v < r.min {
		return fmt.Errorf("required metric %q = %d, want >= %d", r.name, v, r.min)
	}
	return nil
}

// value looks name up across the three metric families, reducing a
// histogram to its observation count.
func value(d doc, name string) (int64, bool) {
	if v, ok := d.Counters[name]; ok {
		return v, true
	}
	if v, ok := d.Gauges[name]; ok {
		return v, true
	}
	if h, ok := d.Histograms[name]; ok {
		return h.Count, true
	}
	return 0, false
}

// splitRequirements splits the -require flag on commas at brace depth
// zero, so multi-label metric names like name{a=1,b=2} stay whole.
func splitRequirements(s string) []string {
	var out []string
	depth, start := 0, 0
	flush := func(end int) {
		if p := strings.TrimSpace(s[start:end]); p != "" {
			out = append(out, p)
		}
		start = end + 1
	}
	for i, c := range s {
		switch c {
		case '{':
			depth++
		case '}':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				flush(i)
			}
		}
	}
	flush(len(s))
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metricscheck:", err)
	os.Exit(1)
}
