package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/mmapfile"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Per-shard model files — the publishing flow of Section III-A1: "After
// training, during model publishing, parameters are resharded and
// serialized from parameter servers to the respective inference shard
// based on a prior partitioning phase." A shard file holds exactly the
// tables (and row-partitions) one sparse shard serves, so a shard process
// loads megabytes instead of the whole model.
//
// One format exists (version 2; a version-1 image is refused): every
// table section is laid out page-aligned with a per-section CRC, in the
// table's *serving* encoding (fp32, fp16, or int8 via the quant codecs)
// — so a booting shard memory-maps the file and serves lookups straight
// from the page cache. Boot becomes mmap-and-serve instead of
// regenerate-everything, and the bytes on disk are bit-identical to what
// MaterializeShardsTiered would have built.
//
// Layout (all integers little-endian):
//
//	magic "DRSH" | u32 version=2 | u32 shard | u32 entry count
//	directory: 64-byte entries of
//	    u32 tableID, partIndex, numParts, rows, dim, enc
//	    u64 hdrOff, u64 dataOff, u64 hdrLen, u64 dataLen
//	    u32 hdrCRC, u32 dataCRC
//	sections, each aligned to 4096 bytes:
//	    fp32: data = rows×dim float32 bits          (no hdr)
//	    fp16: data = rows×dim binary16 values       (no hdr)
//	    int8: hdr  = rows fp16 scales ++ rows fp16 biases
//	          data = rows×stride packed codes
const (
	shardMagic        = "DRSH"
	shardVersion2     = 2
	shardAlign        = 4096
	shardDirEntrySize = 64
)

var errBadShardFile = errors.New("core: malformed shard file")

// alignUp rounds off up to the next section boundary.
func alignUp(off int64) int64 { return (off + shardAlign - 1) &^ int64(shardAlign-1) }

// ShardFilePath names shard `shard` of a model inside dir — the layout
// convention shardtool export-v2 writes and drmserve -shard-dir reads.
func ShardFilePath(dir, modelName string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard%d", modelName, shard))
}

// planUnits lists the placement units shard `shard` serves, in plan
// order, each with its fp32 rows as a *embedding.Dense: a whole table the
// model holds is shared, any other unit drawn (model.Config.DrawPart). A
// held table that is not fp32 is refused.
func planUnits(m *model.Model, plan *sharding.Plan, shard int) ([]ShardTable, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: singular plans have no shards to export")
	}
	if shard < 1 || shard > plan.NumShards {
		return nil, fmt.Errorf("core: shard %d outside [1, %d]", shard, plan.NumShards)
	}
	var units []ShardTable
	for u := range plan.Shards[shard-1].Units() {
		dense, ok := m.Tables[u.TableID].(*embedding.Dense)
		if !ok && m.Tables[u.TableID] != nil {
			return nil, fmt.Errorf("core: table %d is not fp32 dense; serve quantized models singular", u.TableID)
		}
		if !ok || u.NumParts > 1 {
			dense = m.Config.DrawPart(u.TableID, u.NumParts, u.PartIndex)
		}
		units = append(units, ShardTable{PartRef: u, Rows: dense.RowsN, Dim: dense.DimN, Table: dense})
	}
	return units, nil
}

// newImage allocates a zeroed region for a shard image; tests substitute
// it to watch each image's release.
var newImage = mmapfile.Anon

// buildShardImage builds shard number `shard` (1-based) of the plan as a
// v2 image in one anonymous region, each table section in its planned
// cold-tier encoding (a nil tier keeps every table fp32). The directory
// and the page-aligned sections are laid out from the units' shapes
// first; then each section is encoded in place and checksummed there, on
// runtime.GOMAXPROCS(0) workers, largest first so the last one a worker
// takes is a small one. The region starts zeroed, so padding costs
// nothing, and the bytes do not depend on which worker encoded them. The
// caller owns the returned image.
func buildShardImage(m *model.Model, plan *sharding.Plan, shard int, tier *sharding.TierPlan) (*mmapfile.File, error) {
	units, err := planUnits(m, plan, shard)
	if err != nil {
		return nil, err
	}
	type section struct {
		hdrOff, hdrLen, dataOff, dataLen int64
		hdrCRC, dataCRC                  uint32
	}
	secs := make([]section, len(units))
	end := int64(16 + shardDirEntrySize*len(units))
	for i := range units {
		u, s := &units[i], &secs[i]
		u.Enc = planEnc(tier, u.TableID)
		stride, rowHdr, _ := rowLayout(u.Enc, u.Dim) // planEnc names a known encoding
		s.hdrLen, s.dataLen = int64(u.Rows*rowHdr), int64(u.Rows*(stride-rowHdr))
		if s.hdrLen > 0 {
			s.hdrOff = alignUp(end)
			end = s.hdrOff + s.hdrLen
		}
		s.dataOff = alignUp(end)
		end = s.dataOff + s.dataLen
	}
	img := newImage(int(end))
	buf := img.Bytes()

	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	size := func(t ShardTable) int { return t.Rows * t.Dim }
	sort.SliceStable(order, func(i, j int) bool { return size(units[order[i]]) > size(units[order[j]]) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(units)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				u, s := &units[order[k]], &secs[order[k]]
				hdr, data := buf[s.hdrOff:s.hdrOff+s.hdrLen], buf[s.dataOff:s.dataOff+s.dataLen]
				encodeSection(u.Enc, u.Table.(*embedding.Dense).Data, u.Rows, u.Dim, hdr, data)
				s.hdrCRC, s.dataCRC = crc32.ChecksumIEEE(hdr), crc32.ChecksumIEEE(data)
			}
		}()
	}
	wg.Wait()

	copy(buf, shardMagic)
	binary.LittleEndian.PutUint32(buf[4:], shardVersion2)
	binary.LittleEndian.PutUint32(buf[8:], uint32(shard))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(units)))
	for i := range units {
		u, s, ent := &units[i], &secs[i], buf[16+shardDirEntrySize*i:]
		binary.LittleEndian.PutUint32(ent[0:], uint32(u.TableID))
		binary.LittleEndian.PutUint32(ent[4:], uint32(u.PartIndex))
		binary.LittleEndian.PutUint32(ent[8:], uint32(u.NumParts))
		binary.LittleEndian.PutUint32(ent[12:], uint32(u.Rows))
		binary.LittleEndian.PutUint32(ent[16:], uint32(u.Dim))
		binary.LittleEndian.PutUint32(ent[20:], uint32(u.Enc))
		binary.LittleEndian.PutUint64(ent[24:], uint64(s.hdrOff))
		binary.LittleEndian.PutUint64(ent[32:], uint64(s.dataOff))
		binary.LittleEndian.PutUint64(ent[40:], uint64(s.hdrLen))
		binary.LittleEndian.PutUint64(ent[48:], uint64(s.dataLen))
		binary.LittleEndian.PutUint32(ent[56:], s.hdrCRC)
		binary.LittleEndian.PutUint32(ent[60:], s.dataCRC)
	}
	return img, nil
}

// encodeSection encodes rows×dim fp32 values into an image's section pair
// in a cold-tier encoding, through quant's own encoders writing to views
// of the sections — the transforms of Dense.ToFP16 and Dense.Quantize, so
// image bytes match in-memory encoded bytes. The sections were laid out
// for this shape.
func encodeSection(enc int32, vals []float32, rows, dim int, hdr, data []byte) {
	switch enc {
	case TierEncFP32:
		copy(mmapfile.Float32s(data), vals)
	case TierEncFP16:
		(&quant.FP16Rows{Rows: rows, Cols: dim, Data: mmapfile.Uint16s(data)}).Encode(vals)
	case TierEncInt8:
		q, err := quant.NewFromParts(rows, dim, quant.Bits8, mmapfile.Uint16s(hdr[:2*rows]), mmapfile.Uint16s(hdr[2*rows:]), data)
		if err != nil {
			panic(err)
		}
		q.Encode(vals)
	}
	if !mmapfile.ViewsUsable() { // the views wrote host order; an image is little-endian
		swapBytes(hdr, 2)
		swapBytes(data, rowLayouts[enc].width)
	}
}

// swapBytes reverses the bytes of each w-byte value in b.
func swapBytes(b []byte, w int) {
	for i := 0; i+w <= len(b); i += w {
		slices.Reverse(b[i : i+w])
	}
}

// ExportShardV2 writes shard number `shard` (1-based) of the plan to w in
// the version-2 mmap-able format (buildShardImage). A nil tier keeps
// every table fp32; with one, each table section is stored in its planned
// cold-tier precision.
func ExportShardV2(m *model.Model, plan *sharding.Plan, shard int, w io.Writer, tier *sharding.TierPlan) error {
	img, err := buildShardImage(m, plan, shard, tier)
	if err != nil {
		return err
	}
	defer img.Close()
	_, err = w.Write(img.Bytes())
	return err
}

// WriteShardFile exports shard `shard` of the plan (ExportShardV2) to a
// new file at path.
func WriteShardFile(path string, m *model.Model, plan *sharding.Plan, shard int, tier *sharding.TierPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = ExportShardV2(m, plan, shard, f, tier)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ShardTable is one shard-file table: its placement unit plus a
// serving-ready embedding table (possibly backed by mapped file bytes).
type ShardTable struct {
	sharding.PartRef
	Rows, Dim int
	Enc       int32
	Table     embedding.Table
}

// ShardFileData is a fully parsed shard file.
type ShardFileData struct {
	Shard  int
	Tables []ShardTable
}

// NewShard installs the parsed tables into a fresh serving shard
// recording to rec.
func (sf *ShardFileData) NewShard(rec *trace.Recorder) *SparseShard {
	sh := NewSparseShard(ServiceName(sf.Shard), rec)
	for _, t := range sf.Tables {
		sh.InstallTable(t.TableID, t.PartIndex, t.Table) // untiered: nothing to refuse
	}
	return sh
}

// parseShardV2 parses a complete v2 shard file image. With views set,
// table storage aliases data's bytes (the zero-copy mmap path: data must
// outlive the returned tables); otherwise rows are decoded into fresh
// heap storage. Every section's CRC is verified either way.
func parseShardV2(data []byte, views bool) (*ShardFileData, error) {
	if len(data) < 16 || string(data[:4]) != shardMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadShardFile)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != shardVersion2 {
		return nil, fmt.Errorf("%w: unsupported version %d", errBadShardFile, v)
	}
	shard := int(binary.LittleEndian.Uint32(data[8:]))
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if shard < 1 || count < 0 || count > 1<<16 {
		return nil, fmt.Errorf("%w: shard %d, %d entries", errBadShardFile, shard, count)
	}
	if int64(len(data)) < 16+int64(shardDirEntrySize)*int64(count) {
		return nil, fmt.Errorf("%w: truncated directory", errBadShardFile)
	}
	out := &ShardFileData{Shard: shard, Tables: make([]ShardTable, 0, count)}
	for i := 0; i < count; i++ {
		ent := data[16+shardDirEntrySize*i:]
		t := ShardTable{
			PartRef: sharding.PartRef{
				TableID:   int(binary.LittleEndian.Uint32(ent[0:])),
				PartIndex: int(binary.LittleEndian.Uint32(ent[4:])),
				NumParts:  int(binary.LittleEndian.Uint32(ent[8:])),
			},
			Rows: int(binary.LittleEndian.Uint32(ent[12:])),
			Dim:  int(binary.LittleEndian.Uint32(ent[16:])),
			Enc:  int32(binary.LittleEndian.Uint32(ent[20:])),
		}
		hdrOff := int64(binary.LittleEndian.Uint64(ent[24:]))
		dataOff := int64(binary.LittleEndian.Uint64(ent[32:]))
		hdrLen := int64(binary.LittleEndian.Uint64(ent[40:]))
		dataLen := int64(binary.LittleEndian.Uint64(ent[48:]))
		hdrCRC := binary.LittleEndian.Uint32(ent[56:])
		dataCRC := binary.LittleEndian.Uint32(ent[60:])
		if !validTableShape(t.Rows, t.Dim) || t.NumParts < 1 || t.PartIndex < 0 || t.PartIndex >= t.NumParts {
			return nil, fmt.Errorf("%w: entry %d shape %dx%d part %d/%d", errBadShardFile, i, t.Rows, t.Dim, t.PartIndex, t.NumParts)
		}
		stride, rowHdr, err := rowLayout(t.Enc, t.Dim)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", errBadShardFile, i, err)
		}
		wantHdr, wantData := int64(t.Rows)*int64(rowHdr), int64(t.Rows)*int64(stride-rowHdr)
		if hdrLen != wantHdr || dataLen != wantData {
			return nil, fmt.Errorf("%w: entry %d section sizes %d/%d, want %d/%d", errBadShardFile, i, hdrLen, dataLen, wantHdr, wantData)
		}
		hdrSec, err := fileSection(data, hdrOff, hdrLen, hdrCRC)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d hdr: %v", errBadShardFile, i, err)
		}
		dataSec, err := fileSection(data, dataOff, dataLen, dataCRC)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d data: %v", errBadShardFile, i, err)
		}
		if t.Table, err = buildTable(t.Enc, t.Rows, t.Dim, hdrSec, dataSec, views); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", errBadShardFile, i, err)
		}
		out.Tables = append(out.Tables, t)
	}
	return out, nil
}

// fileSection bounds-checks, alignment-checks, and CRC-verifies one
// section of the file image.
func fileSection(data []byte, off, n int64, sum uint32) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if off < 16 || off%shardAlign != 0 || off+n > int64(len(data)) {
		return nil, fmt.Errorf("section [%d, %d) outside file of %d bytes", off, off+n, len(data))
	}
	sec := data[off : off+n]
	if got := crc32.ChecksumIEEE(sec); got != sum {
		return nil, fmt.Errorf("checksum mismatch: file says %08x, content is %08x", sum, got)
	}
	return sec, nil
}

// buildTable materializes one encoding's section pair as a serving
// table: zero-copy views over the bytes when views is set (mmap
// serving), heap decodes otherwise.
func buildTable(enc int32, rows, dim int, hdr, data []byte, views bool) (rowStore, error) {
	f32, u16, codes := mmapfile.DecodeF32, mmapfile.DecodeU16, bytes.Clone
	if views && mmapfile.ViewsUsable() {
		f32, u16, codes = mmapfile.Float32s, mmapfile.Uint16s, func(b []byte) []byte { return b }
	}
	switch enc {
	case TierEncFP32:
		return &embedding.Dense{RowsN: rows, DimN: dim, Data: f32(data)}, nil
	case TierEncFP16:
		return quant.FP16FromParts(rows, dim, u16(data))
	case TierEncInt8:
		return quant.NewFromParts(rows, dim, quant.Bits8, u16(hdr[:2*rows]), u16(hdr[2*rows:]), codes(data))
	}
	return nil, fmt.Errorf("unknown encoding %d", enc)
}

// LoadShardFile parses a shard file entirely into the heap — the tooling
// path (delta-diff, fuzzing) where table storage must not alias a
// short-lived mapping.
func LoadShardFile(data []byte) (*ShardFileData, error) { return parseShardV2(data, false) }

// nopCloser is the closer bootImage returns when the shard's tables own
// their storage (heap decode).
type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// OpenShardFile boots a serving shard from a shard file, memory-mapped so
// table storage is served from the page cache (big-endian hosts decode
// into the heap). The returned closer owns the mapping and must be closed
// only after the shard stops serving.
func OpenShardFile(path string, rec *trace.Recorder) (sh *SparseShard, shard int, closer io.Closer, err error) {
	mf, err := mmapfile.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	return bootImage(mf, rec)
}

// bootImage boots a serving shard from a v2 image, file-backed or built
// in memory. The shard's tables view the image, and the returned closer
// releases it; where views are unusable the tables are heap decodes, the
// image is released here and the closer does nothing. A malformed image
// is released and refused.
func bootImage(img *mmapfile.File, rec *trace.Recorder) (sh *SparseShard, shard int, closer io.Closer, err error) {
	views := mmapfile.ViewsUsable()
	sf, err := parseShardV2(img.Bytes(), views)
	if err != nil {
		img.Close()
		return nil, 0, nil, err
	}
	sh = sf.NewShard(rec)
	if !views {
		img.Close()
		return sh, sf.Shard, nopCloser{}, nil
	}
	return sh, sf.Shard, img, nil
}
