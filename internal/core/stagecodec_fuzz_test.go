package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sharding"
	"repro/internal/trace"
)

// Fuzzers for the control-plane codecs. The shards read these payloads
// off the wire from peers, so each target feeds arbitrary bytes to one
// decoder and requires that it either fails cleanly or yields a message
// that (a) satisfies the bounds the decoder promises — no count or
// payload larger than the input could carry, no shape, encoding or row
// range a table cannot have — and (b) survives re-encoding unchanged
// (decode∘encode is the identity on the image of decode). Panics and
// input-amplifying allocations are the bugs these hunt.

func requireValidShape(t *testing.T, sh TableShape) {
	t.Helper()
	if err := sh.check(); err != nil {
		t.Fatalf("decoder accepted %+v: %v", sh, err)
	}
}

func FuzzStageBegin(f *testing.F) {
	f.Add(encodeMsg(&StageBegin{Txn: 7, Shape: TableShape{TableID: 3, PartIndex: 1, Rows: 100, Dim: 16, Enc: TierEncInt8}, Base: StageClone}))
	f.Add(encodeMsg(&StageBegin{Txn: anonTxn | 1, Shape: TableShape{Rows: 1, Dim: 1}}))
	f.Add(encodeMsg(&StageBegin{Shape: TableShape{Rows: 1 << 30, Dim: 1 << 30, Enc: 9}, Base: 5}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[StageBegin](b)
		if err != nil {
			return
		}
		requireValidShape(t, m.Shape)
		if m.Base != StageEmpty && m.Base != StageClone {
			t.Fatalf("decoder accepted base %d", m.Base)
		}
		again, err := decodeMsg[StageBegin](encodeMsg(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzStagePut(f *testing.F) {
	f.Add(encodeMsg(&StagePut{Txn: 1, TableID: 1, RowStart: 8, Rows: []byte{1, 2, 3, 4, 5, 6}}))
	f.Add(encodeMsg(&StagePut{Txn: anonTxn | 9, PartIndex: 2, Rows: make([]byte, 12)}))
	f.Add(encodeMsg(&StagePut{RowStart: -1}))
	f.Add([]byte("000000000000\x00\x00\x00\x000000\xff\xff\xff\x7f0000"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[StagePut](b)
		if err != nil {
			return
		}
		if m.RowStart < 0 || len(m.Rows) > len(b) {
			t.Fatalf("decoder accepted row start %d, %d payload bytes from %d input bytes", m.RowStart, len(m.Rows), len(b))
		}
		again, err := decodeMsg[StagePut](encodeMsg(m))
		if err != nil || again.Txn != m.Txn || again.TableID != m.TableID || again.PartIndex != m.PartIndex ||
			again.RowStart != m.RowStart || !bytes.Equal(again.Rows, m.Rows) {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzStageEnd(f *testing.F) {
	f.Add(encodeMsg(&StageEnd{Txn: anonTxn | 3}))
	f.Add([]byte("short"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[StageEnd](b)
		if err != nil {
			return
		}
		again, err := decodeMsg[StageEnd](encodeMsg(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzCutoverAck(f *testing.F) {
	f.Add(encodeMsg(&CutoverAck{Epoch: 12, Version: 3, Tables: 2}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[CutoverAck](b)
		if err != nil {
			return
		}
		again, err := decodeMsg[CutoverAck](encodeMsg(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzTableList(f *testing.F) {
	f.Add(encodeMsg(&TableList{Tables: []TableShape{
		{TableID: 3, Rows: 128, Dim: 16, Enc: TierEncFP32},
		{TableID: 7, PartIndex: 2, Rows: 64, Dim: 32, Enc: TierEncInt4},
	}}))
	f.Add(encodeMsg(&TableList{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // a count no input could back
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[TableList](b)
		if err != nil {
			return
		}
		if len(m.Tables)*tableShapeWireSize > len(b) {
			t.Fatalf("decoder built %d entries from %d input bytes", len(m.Tables), len(b))
		}
		for _, sh := range m.Tables {
			requireValidShape(t, sh)
		}
		again, err := decodeMsg[TableList](encodeMsg(m))
		if err != nil || !reflect.DeepEqual(again.Tables, m.Tables) {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzTableRead(f *testing.F) {
	f.Add(encodeMsg(&TableRead{TableID: 9, PartIndex: 2, RowStart: 128, RowCount: 64}))
	f.Add(encodeMsg(&TableRead{RowStart: 1<<31 - 1, RowCount: 1<<31 - 1}))
	f.Add(encodeMsg(&TableRead{TableID: 9}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[TableRead](b)
		if err != nil {
			return
		}
		if m.RowStart < 0 || m.RowCount <= 0 || int64(m.RowStart)+int64(m.RowCount) > maxTableRows {
			t.Fatalf("decoder accepted row range %+v", m)
		}
		again, err := decodeMsg[TableRead](encodeMsg(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzTableRows(f *testing.F) {
	f.Add(encodeMsg(&TableRows{Shape: TableShape{Rows: 10, Dim: 2, Enc: TierEncFP32}, Rows: make([]byte, 16)}))
	f.Add(encodeMsg(&TableRows{Shape: TableShape{TableID: 1, Rows: 10, Dim: 4, Enc: TierEncFP16}, Rows: []byte{1, 2, 3, 4, 5, 6, 7, 8}}))
	f.Add(encodeMsg(&TableRows{Shape: TableShape{Rows: 1, Dim: 3, Enc: TierEncInt4}, Rows: make([]byte, 12)})) // two rows of a one-row table
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[TableRows](b)
		if err != nil {
			return
		}
		requireValidShape(t, m.Shape)
		stride, _ := tierEncStride(m.Shape.Enc, m.Shape.Dim)
		if len(m.Rows)%stride != 0 || len(m.Rows)/stride > int(m.Shape.Rows) || len(m.Rows) > len(b) {
			t.Fatalf("decoder accepted %d payload bytes for shape %+v from %d input bytes", len(m.Rows), m.Shape, len(b))
		}
		again, err := decodeMsg[TableRows](encodeMsg(m))
		if err != nil || again.Shape != m.Shape || !bytes.Equal(again.Rows, m.Rows) {
			t.Fatalf("round trip changed message (err %v)", err)
		}
	})
}

func FuzzTableRelease(f *testing.F) {
	f.Add(encodeMsg(&TableRelease{TableID: 7, PartIndex: 1}))
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[TableRelease](b)
		if err != nil {
			return
		}
		if m.TableID < 0 || m.PartIndex < 0 {
			t.Fatalf("decoder accepted %+v", m)
		}
		again, err := decodeMsg[TableRelease](encodeMsg(m))
		if err != nil || *again != *m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, again, err)
		}
	})
}

func FuzzLoadSummaryRoundTrip(f *testing.F) {
	s := sharding.NewLoadSummary()
	s.Add(sharding.TableLoadKey{TableID: 1}, sharding.TableLoad{Lookups: 10, ServiceTime: time.Millisecond, Calls: 2})
	s.Add(sharding.TableLoadKey{TableID: 2, PartIndex: 1}, sharding.TableLoad{Lookups: 5, Calls: 1})
	f.Add(EncodeLoadSummary(s))
	f.Add(EncodeLoadSummary(sharding.NewLoadSummary()))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeLoadSummary(b)
		if err != nil {
			return
		}
		again, err := DecodeLoadSummary(EncodeLoadSummary(m))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(again.Tables, m.Tables) {
			t.Fatalf("round trip changed summary: %+v != %+v", again.Tables, m.Tables)
		}
	})
}

// FuzzShardControlPlane throws arbitrary bodies at every control-plane
// method of a live shard that holds one small table per encoding and has
// one transaction open: whatever arrives, the shard answers or refuses —
// it never panics — and every table it still holds stays servable. The
// method is picked by name; the serving row is left to FuzzSparseRequest.
func FuzzShardControlPlane(f *testing.F) {
	shape := TableShape{TableID: 1, Rows: 4, Dim: 3, Enc: TierEncInt8}
	f.Add(MethodStageBegin, encodeMsg(&StageBegin{Txn: 5, Shape: shape, Base: StageClone}))
	f.Add(MethodStagePut, encodeMsg(&StagePut{Txn: 9, TableID: 0, RowStart: 3, Rows: make([]byte, 24)}))
	f.Add(MethodStageCommit, encodeMsg(&StageEnd{Txn: 9}))
	f.Add(MethodTableRead, encodeMsg(&TableRead{TableID: 3, RowStart: 3, RowCount: 2}))
	f.Add(MethodTableRelease, encodeMsg(&TableRelease{TableID: 2}))
	f.Add(MethodTableList, []byte{})
	f.Add(MethodSparseLoad, []byte{1})
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		if m, ok := methodRow(method); ok && m.plane != controlPlane {
			return
		}
		if b, err := decodeMsg[StageBegin](body); method == MethodStageBegin && err == nil && int64(b.Shape.Rows)*int64(b.Shape.Dim) > 1<<16 {
			// A valid begin is a request to allocate the table it
			// declares (up to the format's shape caps): the protocol
			// working, not a decoder bug, and no business of a fuzzer.
			return
		}
		sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 16))
		for enc := TierEncFP32; enc <= TierEncInt4; enc++ {
			rows, err := newRowStore(TableShape{Rows: 4, Dim: 3, Enc: enc})
			if err != nil {
				t.Fatal(err)
			}
			tab, err := tableOf(rows)
			if err != nil {
				t.Fatal(err)
			}
			sh.AddTable(int(enc), tab)
		}
		ctx := trace.Context{}
		if _, err := sh.Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: 9, Shape: TableShape{Rows: 4, Dim: 2}})); err != nil {
			t.Fatal(err)
		}
		_, _ = sh.Handle(ctx, method, body)
		if _, err := sh.Handle(ctx, MethodTableList, nil); err != nil {
			t.Fatalf("shard cannot list its tables after %q: %v", method, err)
		}
		acc := make([]float32, 3)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for key, tab := range sh.tables {
			if tab.NumRows() <= 0 || tab.Dim() <= 0 {
				t.Fatalf("table %v became unservable after %q", key, method)
			}
			if tab.Dim() == len(acc) {
				tab.AccumulateRow(acc, tab.NumRows()-1)
			}
		}
	})
}

// methodRow looks a method up in the shard's descriptor.
func methodRow(name string) (shardMethod, bool) {
	for _, m := range shardMethods {
		if m.name == name {
			return m, true
		}
	}
	return shardMethod{}, false
}

// TestControlPlaneSeedsNameTheirMethod: each committed
// FuzzShardControlPlane seed names, as its first argument, a
// control-plane row of the shard's method descriptor.
func TestControlPlaneSeedsNameTheirMethod(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzShardControlPlane", "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed seeds")
	}
	for _, path := range files {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: a version line, then one Go literal per
		// argument — the method first, as string("…").
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Errorf("%s: not a fuzz corpus file", name)
			continue
		}
		lit, ok := strings.CutPrefix(lines[1], "string(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		method, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Errorf("%s: no method name on line 2: %q", name, lines[1])
			continue
		}
		if m, ok := methodRow(method); !ok || m.plane != controlPlane {
			t.Errorf("%s: names %q, not a control-plane method", name, method)
		}
	}
}
