package core

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
)

// FuzzImportShard hammers the shard-file importer with arbitrary bytes.
// Any input must either be rejected with an error or parse into tables
// that are fully servable: no panics, no unbounded allocations, no table
// whose lookup path crashes. The seed corpus
// (testdata/fuzz/FuzzImportShard) commits real exports so exploration
// starts from deep inside the format.
func FuzzImportShard(f *testing.F) {
	// Shrink far below tinyConfig: seed inputs bound mutation cost, and
	// the format's structure is fully represented at this size.
	cfg := tinyConfig()
	cfg.Tables = cfg.Tables[:6]
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 8
		cfg.Tables[i].Dim = 4
	}
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		f.Fatal(err)
	}
	var v2, v2q bytes.Buffer
	if err := ExportShardV2(m, plan, 1, &v2, nil); err != nil {
		f.Fatal(err)
	}
	tier := uniformTiers(&cfg, sharding.PrecisionInt8)
	if err := ExportShardV2(m, plan, 2, &v2q, tier); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v2q.Bytes())
	f.Add(asInt4(v2q.Bytes()))            // an int4 entry: no shard table has that encoding
	f.Add(v2.Bytes()[:len(v2.Bytes())/2]) // mid-section truncation
	f.Add([]byte("DRSH"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		sf, err := LoadShardFile(b)
		if err != nil {
			return
		}
		if sf.Shard < 1 {
			t.Fatalf("accepted shard number %d", sf.Shard)
		}
		for i, st := range sf.Tables {
			if st.Rows <= 0 || st.Dim <= 0 || st.Table == nil {
				t.Fatalf("entry %d: accepted unservable table %dx%d (%v)", i, st.Rows, st.Dim, st.Table)
			}
			if st.Table.NumRows() != st.Rows || st.Table.Dim() != st.Dim {
				t.Fatalf("entry %d: directory says %dx%d, table is %dx%d",
					i, st.Rows, st.Dim, st.Table.NumRows(), st.Table.Dim())
			}
			// Drive the serving path on the boundary rows: a table that
			// parsed but cannot answer lookups is the crash class this
			// fuzzer exists to catch.
			acc := make([]float32, st.Dim)
			st.Table.AccumulateRow(acc, 0)
			st.Table.AccumulateRow(acc, st.Rows-1)
		}
	})
}
