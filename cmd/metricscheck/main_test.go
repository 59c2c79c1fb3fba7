package main

import (
	"strings"
	"testing"
)

// The metrics gate gets tests of its own: requirement parsing (presence
// vs value floors), the brace-aware -require splitter that keeps
// labeled names whole, lookup across the three metric families, and the
// schema validator's invariants.

func sampleDoc() doc {
	return doc{
		At: "2026-08-07T12:00:00.000000001Z",
		Counters: map[string]int64{
			"engine.requests": 3,
		},
		Gauges: map[string]int64{
			"frontend.completed{model=drm1a}": 48,
			"frontend.queue_depth":            2,
		},
		Histograms: map[string]histDoc{
			"frontend.e2e_ns": {Count: 48, Mean: 5, P50: 4, P95: 6, P99: 7, Max: 9},
		},
	}
}

func TestParseRequirement(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		min     int64
		hasMin  bool
		wantErr bool
	}{
		{in: "engine.requests", name: "engine.requests"},
		{in: "engine.requests>=1", name: "engine.requests", min: 1, hasMin: true},
		{in: " frontend.completed{model=drm1a}>=100 ", name: "frontend.completed{model=drm1a}", min: 100, hasMin: true},
		{in: "engine.requests>=", wantErr: true},
		{in: "engine.requests>=abc", wantErr: true},
		{in: ">=3", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseRequirement(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseRequirement(%q) did not error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRequirement(%q): %v", tc.in, err)
			continue
		}
		want := requirement{name: tc.name, min: tc.min, hasMin: tc.hasMin}
		if got != want {
			t.Errorf("parseRequirement(%q) = %+v, want %+v", tc.in, got, want)
		}
	}
}

func TestSplitRequirementsBraceAware(t *testing.T) {
	in := "a>=1, b{model=x}>=2 ,c{a=1,b=2},, d"
	want := []string{"a>=1", "b{model=x}>=2", "c{a=1,b=2}", "d"}
	got := splitRequirements(in)
	if len(got) != len(want) {
		t.Fatalf("splitRequirements(%q) = %v, want %v", in, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("part %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := splitRequirements(""); len(got) != 0 {
		t.Errorf("splitRequirements(\"\") = %v, want empty", got)
	}
}

func TestValueAcrossFamilies(t *testing.T) {
	d := sampleDoc()
	for name, want := range map[string]int64{
		"engine.requests":                 3,  // counter
		"frontend.completed{model=drm1a}": 48, // labeled gauge
		"frontend.e2e_ns":                 48, // histogram -> count
	} {
		if v, ok := value(d, name); !ok || v != want {
			t.Errorf("value(%s) = %d, %v; want %d, true", name, v, ok, want)
		}
	}
	if _, ok := value(d, "nope"); ok {
		t.Error("value found a metric that does not exist")
	}
}

func TestRequirementCheck(t *testing.T) {
	d := sampleDoc()
	cases := []struct {
		spec    string
		wantErr string
	}{
		{spec: "engine.requests"},
		{spec: "engine.requests>=3"},
		{spec: "engine.requests>=4", wantErr: "want >= 4"},
		{spec: "frontend.completed{model=drm1a}>=48"},
		{spec: "frontend.queue_depth>=2"},
		{spec: "frontend.e2e_ns>=48"},
		{spec: "absent.metric", wantErr: "absent"},
		{spec: "absent.metric>=1", wantErr: "absent"},
	}
	for _, tc := range cases {
		req, err := parseRequirement(tc.spec)
		if err != nil {
			t.Fatalf("parseRequirement(%q): %v", tc.spec, err)
		}
		err = req.check(d)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("check(%q): %v", tc.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("check(%q) = %v, want error containing %q", tc.spec, err, tc.wantErr)
		}
	}
}

func TestValidateInvariants(t *testing.T) {
	good := sampleDoc()
	if err := validate(good); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}

	bad := sampleDoc()
	bad.At = "yesterday"
	if err := validate(bad); err == nil {
		t.Error("non-RFC3339Nano timestamp accepted")
	}

	bad = sampleDoc()
	bad.Counters["engine.requests"] = -1
	if err := validate(bad); err == nil {
		t.Error("negative counter accepted")
	}

	bad = sampleDoc()
	bad.Histograms["frontend.e2e_ns"] = histDoc{Count: 5, P50: 9, P95: 6, P99: 7, Max: 9}
	if err := validate(bad); err == nil {
		t.Error("unordered quantiles accepted")
	}

	// A shard's non-empty-bag count needs its total, at least as large.
	fill := sampleDoc()
	fill.Counters["sparse1.sparse.bags"], fill.Counters["sparse1.sparse.bags_present"] = 900, 250
	if err := validate(fill); err != nil {
		t.Errorf("consistent bag counters rejected: %v", err)
	}
	fill.Counters["sparse1.sparse.bags_present"] = 901
	if err := validate(fill); err == nil {
		t.Error("more non-empty bags than bags accepted")
	}
	delete(fill.Counters, "sparse1.sparse.bags")
	if err := validate(fill); err == nil {
		t.Error("sparse.bags_present without sparse.bags accepted")
	}

	// An empty histogram skips the quantile checks entirely.
	empty := sampleDoc()
	empty.Histograms["frontend.e2e_ns"] = histDoc{}
	if err := validate(empty); err != nil {
		t.Errorf("empty histogram rejected: %v", err)
	}
}
