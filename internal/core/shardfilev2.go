package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// encodeRows encodes rows×dim fp32 values in a cold-tier encoding, as
// the shard-file sections of that encoding: the transforms of
// Dense.ToFP16 and Dense.Quantize, so file bytes match in-memory encoded
// bytes. Row-wise codecs are independent per row, so a run of rows
// encodes to the bytes those rows have in a whole-table encode — the
// publisher re-encodes delta rows through here too. The encoding is
// one a tier plan or a checked shape names.
func encodeRows(enc int32, vals []float32, rows, dim int) (hdr, data []byte) {
	switch enc {
	case TierEncFP32:
		data = make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
		}
	case TierEncFP16:
		e := quant.EncodeFP16Rows(vals, rows, dim)
		data = make([]byte, 2*len(e.Data))
		for i, v := range e.Data {
			binary.LittleEndian.PutUint16(data[2*i:], v)
		}
	case TierEncInt8:
		q := quant.QuantizeRows(vals, rows, dim, quant.Bits8)
		hdr = make([]byte, 4*q.Rows)
		for i, v := range q.Scales {
			binary.LittleEndian.PutUint16(hdr[2*i:], v)
		}
		for i, v := range q.Biases {
			binary.LittleEndian.PutUint16(hdr[2*q.Rows+2*i:], v)
		}
		data = q.Packed
	default:
		panic(fmt.Sprintf("core: encodeRows in unknown encoding %d", enc))
	}
	return hdr, data
}

// ExportShardV2 writes shard number `shard` (1-based) of the plan to w in
// the version-2 mmap-able format. A nil tier keeps every table fp32; with
// one, each table section is stored in its planned cold-tier precision.
// Sections encode on runtime.GOMAXPROCS(0) workers, largest first so the
// last one a worker takes is a small one; the bytes do not depend on
// which worker encoded them.
func ExportShardV2(m *model.Model, plan *sharding.Plan, shard int, w io.Writer, tier *sharding.TierPlan) error {
	units, err := planUnits(m, plan, shard)
	if err != nil {
		return err
	}
	type section struct {
		ShardTable
		hdr, data       []byte
		hdrOff, dataOff int64
		hdrCRC, dataCRC uint32
	}
	secs := make([]section, len(units))
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
				s := &secs[order[k]]
				s.ShardTable = units[order[k]]
				s.Enc = planEnc(tier, s.TableID)
				s.hdr, s.data = encodeRows(s.Enc, s.Table.(*embedding.Dense).Data, s.Rows, s.Dim)
				s.hdrCRC, s.dataCRC = crc32.ChecksumIEEE(s.hdr), crc32.ChecksumIEEE(s.data)
			}
		}()
	}
	wg.Wait()
	off := alignUp(int64(16 + shardDirEntrySize*len(units)))
	for i := range secs {
		s := &secs[i]
		if len(s.hdr) > 0 {
			s.hdrOff = off
			off = alignUp(off + int64(len(s.hdr)))
		}
		s.dataOff = off
		off = alignUp(off + int64(len(s.data)))
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := make([]byte, 16)
	copy(hdr, shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], shardVersion2)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(shard))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(units)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	ent := make([]byte, shardDirEntrySize)
	for i := range secs {
		s := &secs[i]
		binary.LittleEndian.PutUint32(ent[0:], uint32(s.TableID))
		binary.LittleEndian.PutUint32(ent[4:], uint32(s.PartIndex))
		binary.LittleEndian.PutUint32(ent[8:], uint32(s.NumParts))
		binary.LittleEndian.PutUint32(ent[12:], uint32(s.Rows))
		binary.LittleEndian.PutUint32(ent[16:], uint32(s.Dim))
		binary.LittleEndian.PutUint32(ent[20:], uint32(s.Enc))
		binary.LittleEndian.PutUint64(ent[24:], uint64(s.hdrOff))
		binary.LittleEndian.PutUint64(ent[32:], uint64(s.dataOff))
		binary.LittleEndian.PutUint64(ent[40:], uint64(len(s.hdr)))
		binary.LittleEndian.PutUint64(ent[48:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(ent[56:], s.hdrCRC)
		binary.LittleEndian.PutUint32(ent[60:], s.dataCRC)
		if _, err := bw.Write(ent); err != nil {
			return err
		}
	}
	// Sections in offset order, zero-padded to their aligned starts. The
	// exporter tracks the written offset instead of seeking, so any
	// io.Writer (pipes included) can receive a shard file.
	pos := int64(16 + shardDirEntrySize*len(units))
	pad := func(to int64) error {
		for pos < to {
			n := to - pos
			if n > int64(len(zeroPage)) {
				n = int64(len(zeroPage))
			}
			if _, err := bw.Write(zeroPage[:n]); err != nil {
				return err
			}
			pos += n
		}
		return nil
	}
	for i := range secs {
		s := &secs[i]
		if len(s.hdr) > 0 {
			if err := pad(s.hdrOff); err != nil {
				return err
			}
			if _, err := bw.Write(s.hdr); err != nil {
				return err
			}
			pos += int64(len(s.hdr))
		}
		if err := pad(s.dataOff); err != nil {
			return err
		}
		if _, err := bw.Write(s.data); err != nil {
			return err
		}
		pos += int64(len(s.data))
	}
	return bw.Flush()
}

var zeroPage [shardAlign]byte

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

// nopCloser is the closer OpenShardFile returns when the shard's tables
// own their storage (heap decode).
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
	views := mmapfile.ViewsUsable()
	sf, err := parseShardV2(mf.Bytes(), views)
	if err != nil {
		mf.Close()
		return nil, 0, nil, err
	}
	sh = sf.NewShard(rec)
	if !views {
		mf.Close()
		return sh, sf.Shard, nopCloser{}, nil
	}
	return sh, sf.Shard, mf, nil
}
