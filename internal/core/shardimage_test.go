package core

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// TestShardImagesLeaveNoFile: a tiered boot builds each shard's image in
// anonymous memory, so nothing lands under TMPDIR; the shard holds its
// image while it lives and releases it at Close, and a boot that fails
// midway — the second shard's image cannot be built — releases the
// first shard's. An image's Bytes are nil once it is released.
func TestShardImagesLeaveNoFile(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	var images []*mmapfile.File
	newImage = func(size int) *mmapfile.File {
		img := mmapfile.Anon(size)
		images = append(images, img)
		return img
	}
	t.Cleanup(func() { newImage = mmapfile.Anon })
	cfg, m, plan, recs := imageFixture(t, 32)
	tier := tierConfigFor(&cfg, sharding.PrecisionInt8, 0)

	shards, err := MaterializeShardsTiered(m, plan, recs, tier)
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("temp dir holds %v (err %v)", entries, err)
	}
	if len(images) != plan.NumShards {
		t.Fatalf("%d images built for %d shards", len(images), plan.NumShards)
	}
	if mmapfile.ViewsUsable() {
		for i, sh := range shards {
			if sh.image != images[i] || images[i].Bytes() == nil {
				t.Errorf("%s does not hold its image while serving", sh.ShardName)
			}
		}
	}
	closeShards(shards)
	for i, img := range images {
		if img.Bytes() != nil {
			t.Errorf("image %d held after Close", i+1)
		}
	}

	// A table that is not fp32 cannot be encoded: put one on shard 2.
	images = nil
	bad := *m
	bad.Tables = slices.Clone(m.Tables)
	id := plan.Shards[1].Tables[0]
	bad.Tables[id] = m.Tables[id].(*embedding.Dense).ToFP16()
	if _, err := MaterializeShardsTiered(&bad, plan, recs, tier); err == nil {
		t.Fatal("a boot over an unexportable table succeeded")
	}
	if len(images) != 1 {
		t.Fatalf("a failed boot built %d images, want shard 1's alone", len(images))
	}
	if images[0].Bytes() != nil {
		t.Error("a failed boot left shard 1's image held")
	}
}

// TestTieredBootNeedsNoTempDir: an int8-tiered boot from the model writes
// no file, so it boots with TMPDIR naming a directory that does not
// exist, and its shards pool the same bytes as the same shards booted
// from files (WriteShardFile, then OpenShardFile).
func TestTieredBootNeedsNoTempDir(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	cfg, m, plan, recs := imageFixture(t, 64)
	tier := tierConfigFor(&cfg, sharding.PrecisionInt8, 0)
	booted, err := MaterializeShardsTiered(m, plan, recs, tier)
	if err != nil {
		t.Fatal(err)
	}
	defer closeShards(booted)
	for shard := 1; shard <= plan.NumShards; shard++ {
		path := ShardFilePath(dir, cfg.Name, shard)
		if err := WriteShardFile(path, m, plan, shard, tier.Plan); err != nil {
			t.Fatal(err)
		}
		sh, _, image, err := OpenShardFile(path, trace.NewRecorder("file", 64))
		if err != nil {
			t.Fatal(err)
		}
		defer image.Close()
		compareShards(t, &cfg, &plan.Shards[shard-1], booted[shard-1], sh)
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
