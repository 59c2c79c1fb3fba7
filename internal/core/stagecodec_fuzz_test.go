package core

import (
	"bytes"
	"reflect"
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

func FuzzTableForward(f *testing.F) {
	f.Add(encodeMsg(&TableForward{TableID: 7, PartIndex: 1, Service: "sparse2", Addr: "127.0.0.1:7102", Release: true}))
	f.Add(encodeMsg(&TableForward{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMsg[TableForward](b)
		if err != nil {
			return
		}
		again, err := decodeMsg[TableForward](encodeMsg(m))
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
// it never panics — and keeps serving the tables it held.
func FuzzShardControlPlane(f *testing.F) {
	shape := TableShape{TableID: 1, Rows: 4, Dim: 3, Enc: TierEncInt8}
	f.Add(uint8(2), encodeMsg(&StageBegin{Txn: 5, Shape: shape, Base: StageClone}))
	f.Add(uint8(3), encodeMsg(&StagePut{Txn: 9, TableID: 0, RowStart: 3, Rows: make([]byte, 24)}))
	f.Add(uint8(4), encodeMsg(&StageEnd{Txn: 9}))
	f.Add(uint8(7), encodeMsg(&TableRead{TableID: 3, RowStart: 3, RowCount: 2}))
	f.Add(uint8(6), []byte{})
	f.Add(uint8(1), []byte{1})
	f.Fuzz(func(t *testing.T, method uint8, body []byte) {
		m := shardMethods[1+int(method)%(len(shardMethods)-1)] // everything but sparse.run
		if m.name == MethodTableForward {
			return // dials whatever address the body names
		}
		if b, err := decodeMsg[StageBegin](body); m.name == MethodStageBegin && err == nil && int64(b.Shape.Rows)*int64(b.Shape.Dim) > 1<<16 {
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
		_, _ = sh.Handle(ctx, m.name, body)
		if _, err := sh.Handle(ctx, MethodTableList, nil); err != nil {
			t.Fatalf("shard cannot list its tables after %s: %v", m.name, err)
		}
		acc := make([]float32, 3)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for key, tab := range sh.tables {
			if tab.NumRows() <= 0 || tab.Dim() <= 0 {
				t.Fatalf("table %v became unservable after %s", key, m.name)
			}
			if tab.Dim() == len(acc) {
				tab.AccumulateRow(acc, tab.NumRows()-1)
			}
		}
	})
}
