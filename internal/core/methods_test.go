package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// designMethods reads the method table of DESIGN.md's "Staged table-set
// transaction" section: each method it lists, and whether its row is
// marked "(not control plane)".
func designMethods(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Staged table-set transaction")
	if !ok {
		t.Fatal(`DESIGN.md has no "Staged table-set transaction" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "\n| method |")
	if !ok {
		t.Fatal("the section has no method table")
	}
	notControl := make(map[string]bool)
	for _, line := range strings.Split(table, "\n")[2:] { // past the header's tail and the separator
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(line, "|")
		name, ok := strings.CutPrefix(strings.TrimSpace(cells[1]), "`")
		name, ok2 := strings.CutSuffix(name, "`")
		if !ok || !ok2 {
			t.Fatalf("method table row names no method: %q", line)
		}
		notControl[name] = strings.Contains(line, "(not control plane)")
	}
	return notControl
}

// TestDesignMethodTableMatchesDescriptor: DESIGN.md's method table lists
// exactly the descriptor's methods and marks exactly its serving rows
// "(not control plane)".
func TestDesignMethodTableMatchesDescriptor(t *testing.T) {
	if shardMethods[0].name != MethodSparseRun {
		t.Errorf("the descriptor opens with %s: Handle's walk must reach %s first", shardMethods[0].name, MethodSparseRun)
	}
	design := designMethods(t)
	for _, m := range shardMethods {
		notControl, ok := design[m.name]
		switch {
		case !ok:
			t.Errorf("DESIGN.md's method table has no row for %s", m.name)
		case notControl != (m.plane != controlPlane):
			t.Errorf("DESIGN.md marks %s (not control plane) = %v, the descriptor = %v", m.name, notControl, !notControl)
		}
		delete(design, m.name)
	}
	for name := range design {
		t.Errorf("DESIGN.md's method table lists %s, which the descriptor does not", name)
	}
}

// TestMethodCounters: for each descriptor row with a counter, one
// successful call raises "<shard>.<counter>" by exactly 1 and a refused
// call leaves it unchanged.
func TestMethodCounters(t *testing.T) {
	const held, staged = 1, 2
	stagedShape := TableShape{TableID: staged, Rows: 4, Dim: 2, Enc: TierEncFP32}
	accepted := map[string][]byte{
		MethodStageBegin:   encodeMsg(&StageBegin{Txn: 10, Shape: TableShape{TableID: 3, Rows: 4, Dim: 2}}),
		MethodStagePut:     encodeMsg(&StagePut{Txn: 9, TableID: staged, RowStart: 1, Rows: make([]byte, 8)}),
		MethodStageCommit:  encodeMsg(&StageEnd{Txn: 9}),
		MethodTableRead:    encodeMsg(&TableRead{TableID: held, RowCount: 2}),
		MethodTableRelease: encodeMsg(&TableRelease{TableID: held}),
	}
	for _, m := range shardMethods {
		if m.counter == "" {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			body, ok := accepted[m.name]
			if !ok {
				t.Fatalf("no accepted call for %s here", m.name)
			}
			sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 16))
			rows, err := newRowStore(TableShape{Rows: 4, Dim: 3, Enc: TierEncInt8})
			if err != nil {
				t.Fatal(err)
			}
			tab, err := tableOf(rows)
			if err != nil {
				t.Fatal(err)
			}
			sh.AddTable(held, tab)
			ctx := trace.Context{}
			if _, err := sh.Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: 9, Shape: stagedShape})); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sh.SetObs(reg)
			c := reg.Counter("sparse1." + m.counter)

			if _, err := sh.Handle(ctx, m.name, []byte{1}); err == nil {
				t.Fatalf("%s accepted a one-byte body", m.name)
			}
			if n := c.Load(); n != 0 {
				t.Fatalf("a refused %s raised %s to %d", m.name, m.counter, n)
			}
			if _, err := sh.Handle(ctx, m.name, body); err != nil {
				t.Fatal(err)
			}
			if n := c.Load(); n != 1 {
				t.Fatalf("one accepted %s raised %s to %d, want 1", m.name, m.counter, n)
			}
		})
	}
}
