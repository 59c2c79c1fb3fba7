package core

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/mmapfile"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// imageFixture is a two-shard plan over the tiny model with tables big
// enough that their int8 rows dwarf a shard's bookkeeping.
func imageFixture(t *testing.T, rows int) (model.Config, *model.Model, *sharding.Plan, []*trace.Recorder) {
	t.Helper()
	cfg := tinyConfig()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = rows
	}
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	return cfg, model.Build(cfg), plan, recs
}

// imageMappings counts this process's mappings of files under dir (-1
// where /proc/self/maps cannot be read).
func imageMappings(dir string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), dir+string(os.PathSeparator))
}

func closeShards(shards []*SparseShard) {
	for _, sh := range shards {
		if sh != nil {
			sh.Close()
		}
	}
}

// TestShardImagesLeaveTheHeap: a tiered boot serves its encoded rows from
// mapped images, so the live Go heap grows by a small fraction of the
// encoded bytes. Encoding at install put all of them on the heap.
func TestShardImagesLeaveTheHeap(t *testing.T) {
	if !mmapfile.ViewsUsable() || (runtime.GOOS != "linux" && runtime.GOOS != "darwin") {
		t.Skip("tables are heap decodes where the image cannot be mapped")
	}
	cfg, m, plan, recs := imageFixture(t, 2048)
	tier := tierConfigFor(&cfg, sharding.PrecisionInt8, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shards, err := MaterializeShardsTiered(m, plan, recs, tier)
	if err != nil {
		t.Fatal(err)
	}
	defer closeShards(shards)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	var encoded int64
	for _, sh := range shards {
		st := sh.TierSnapshot()
		if st.Int8 != st.Tables {
			t.Fatalf("%s: %+v, want every table int8", sh.ShardName, st)
		}
		encoded += st.ColdBytes
	}
	rise := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap rose %d bytes for %d encoded bytes", rise, encoded)
	if rise >= encoded/10 {
		t.Fatalf("heap rose %d bytes, want under a tenth of the %d encoded bytes", rise, encoded)
	}
}

// TestShardImagesLeaveNoFile: a tiered boot unlinks its images once they
// are mapped, and a boot that fails midway — the second shard's image
// cannot be written — also releases the first shard's mapping.
func TestShardImagesLeaveNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	cfg, m, plan, recs := imageFixture(t, 32)
	tier := tierConfigFor(&cfg, sharding.PrecisionInt8, 0)
	empty := func(when string) {
		t.Helper()
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("%s: temp dir holds %v (err %v)", when, entries, err)
		}
	}

	shards, err := MaterializeShardsTiered(m, plan, recs, tier)
	if err != nil {
		t.Fatal(err)
	}
	empty("after a boot")
	if n := imageMappings(dir); n != -1 && n != plan.NumShards {
		t.Errorf("%d image mappings while serving, want %d", n, plan.NumShards)
	}
	closeShards(shards)
	if n := imageMappings(dir); n > 0 {
		t.Errorf("%d image mappings after Close", n)
	}

	// A table that is not fp32 cannot be exported: put one on shard 2.
	bad := *m
	bad.Tables = slices.Clone(m.Tables)
	id := plan.Shards[1].Tables[0]
	bad.Tables[id] = m.Tables[id].(*embedding.Dense).ToFP16()
	if _, err := MaterializeShardsTiered(&bad, plan, recs, tier); err == nil {
		t.Fatal("a boot over an unexportable table succeeded")
	}
	empty("after a failed boot")
	if n := imageMappings(dir); n > 0 {
		t.Errorf("a failed boot left %d image mappings", n)
	}
}

// countingCloser counts its releases.
type countingCloser struct{ n int }

func (c *countingCloser) Close() error { c.n++; return nil }

// TestCloseReleasesImageOnce: a shard releases its image at its first
// Close and drops the tables that view it, so a second Close — or a
// lookup that should never come — touches no unmapped row.
func TestCloseReleasesImageOnce(t *testing.T) {
	cfg, m, plan, recs := imageFixture(t, 32)
	shards, err := MaterializeShardsTiered(m, plan, recs, tierConfigFor(&cfg, sharding.PrecisionInt8, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer closeShards(shards)
	sh := shards[0]
	image := &countingCloser{}
	sh.image.Close()
	sh.OwnImage(image)
	sh.Close()
	sh.Close()
	if image.n != 1 || sh.NumTables() != 0 {
		t.Fatalf("released %d times, %d tables left", image.n, sh.NumTables())
	}
}
