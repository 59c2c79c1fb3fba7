// Package core implements the distributed inference runtime: the main
// shard engine that executes dense layers and replaces sparse operators
// with asynchronous RPC operators, the sparse shard service that serves
// embedding lookups, and the binary payload codecs between them.
//
// This is the Go analogue of the paper's customized Thrift + Caffe2 stack
// (Section III-C): the engine compiles a model.Model plus a sharding.Plan
// into per-net programs; requests are split into batches executed in
// parallel; each request's RPC operators fan out asynchronously — one
// call per sparse shard, issued at admission — and the pooled results
// are merged (for row-partitioned tables, partial pools are summed —
// exact, because sum pooling distributes over row partitions).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// SparseEntry identifies one table (or one row-partition of a table) in a
// sparse RPC, together with the bags to pool. Net indexes the request's
// Nets. PartIndex/NumParts are (0, 1) for whole tables; for partitions,
// bag indices are already localized (logical/NumParts) by the caller.
type SparseEntry struct {
	Net       int32
	TableID   int32
	PartIndex int32
	NumParts  int32
	Bags      []embedding.Bag
}

// SparseRequest asks one sparse shard to pool a set of entries, each
// belonging to one of the nets it names: the shard pools every net's
// entries as that net's operator, so its spans still split by net.
type SparseRequest struct {
	Nets    []string
	Entries []SparseEntry
}

// PooledEntry is one pooled (or partially pooled) result, packed: Rows
// bags were asked about, and Data holds one Cols-wide row for each of
// them that had any index, in bag order — nothing for an empty bag. How
// many rows that is travels as the float count; which bags they belong
// to the requester knows from the bag list it sent.
type PooledEntry struct {
	TableID   int32
	PartIndex int32
	Rows      int32
	Cols      int32
	Data      []float32
}

// SparseResponse carries pooled results for every requested entry, in
// request order.
type SparseResponse struct {
	Entries []PooledEntry
}

// RankingRequest is the wire form of a workload request hitting the main
// shard: per-net dense features plus per-table raw sparse ID bags.
type RankingRequest struct {
	ID    uint64
	Items int32
	// Dense holds one matrix per net, keyed by net name.
	Dense map[string]*tensor.Matrix
	// Bags holds raw sparse IDs per table ID.
	Bags map[int32][]embedding.Bag
}

// RankingResponse carries one score per item.
type RankingResponse struct {
	Scores []float32
}

var errTruncated = errors.New("core: truncated payload")

// Every encoder below computes its message's size first and fills one
// buffer of exactly that capacity, so the append helpers never grow it;
// every decoder bounds each wire count by the bytes left before it
// allocates, and decodes all of a message's bags into one flat index
// array behind one header slice.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func bagsSize(bags []embedding.Bag) int {
	return 4 + 4*len(bags) + 4*embedding.TotalLookups(bags)
}

// appendBags writes indices one at a time: bags average under one index,
// so a bulk copy per bag would cost more than it moves.
func appendBags(b []byte, bags []embedding.Bag) []byte {
	b = appendU32(b, uint32(len(bags)))
	for _, bag := range bags {
		b = appendU32(b, uint32(len(bag.Indices)))
		for _, idx := range bag.Indices {
			b = appendU32(b, uint32(idx))
		}
	}
	return b
}

// reader decodes a payload front to back.
type reader struct{ b []byte }

func (r *reader) u32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

// count reads an element count and rejects one the remaining bytes
// cannot hold at elemBytes each — before anything is sized by it.
func (r *reader) count(elemBytes int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(elemBytes) > uint64(len(r.b)) {
		return 0, errTruncated
	}
	return int(n), nil
}

// take returns the next n bytes.
func (r *reader) take(n int) []byte {
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	return string(r.take(n)), nil
}

// f32Region reads a float count and returns the wire bytes of that many
// floats, undecoded.
func (r *reader) f32Region() ([]byte, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	return r.take(4 * n), nil
}

// skipBags walks one bag list without decoding it and reports how many
// bags and indices it holds.
func (r *reader) skipBags() (bags, indices int, err error) {
	if bags, err = r.count(4); err != nil {
		return 0, 0, err
	}
	for i := 0; i < bags; i++ {
		k, err := r.count(4)
		if err != nil {
			return 0, 0, err
		}
		r.b = r.b[4*k:]
		indices += k
	}
	return bags, indices, nil
}

// bagSlab backs every bag a message decodes: one header slice and one
// flat index array, handed out as capacity-capped sub-slices so no bag
// can grow into its neighbour.
type bagSlab struct {
	bags []embedding.Bag
	idx  []int32
}

func newBagSlab(bags, indices int) bagSlab {
	return bagSlab{bags: make([]embedding.Bag, bags), idx: make([]int32, indices)}
}

// decode reads one bag list — already measured by skipBags, so counts
// fit the slab — leaving empty bags with nil indices.
func (s *bagSlab) decode(r *reader) ([]embedding.Bag, error) {
	n, err := r.count(4)
	if err != nil || n > len(s.bags) {
		return nil, errTruncated
	}
	out := s.bags[:n:n]
	s.bags = s.bags[n:]
	for i := range out {
		k, err := r.count(4)
		if err != nil || k > len(s.idx) {
			return nil, errTruncated
		}
		if k == 0 {
			continue
		}
		dst := s.idx[:k:k]
		s.idx = s.idx[k:]
		for j := range dst {
			dst[j] = int32(binary.LittleEndian.Uint32(r.b[4*j:]))
		}
		r.b = r.b[4*k:]
		out[i].Indices = dst
	}
	return out, nil
}

// EncodeSparseRequest serializes a sparse RPC request.
func EncodeSparseRequest(req *SparseRequest) []byte {
	size := 4 + 4
	for _, net := range req.Nets {
		size += 4 + len(net)
	}
	for i := range req.Entries {
		size += sparseEntryHeader + bagsSize(req.Entries[i].Bags)
	}
	b := appendU32(make([]byte, 0, size), uint32(len(req.Nets)))
	for _, net := range req.Nets {
		b = appendStr(b, net)
	}
	b = appendU32(b, uint32(len(req.Entries)))
	for i := range req.Entries {
		e := &req.Entries[i]
		b = appendU32(b, uint32(e.Net))
		b = appendU32(b, uint32(e.TableID))
		b = appendU32(b, uint32(e.PartIndex))
		b = appendU32(b, uint32(e.NumParts))
		b = appendBags(b, e.Bags)
	}
	return b
}

// sparseEntryHeader is an entry's fixed part, four ids; with its bag
// count that is the least an entry occupies.
const sparseEntryHeader = 16

// DecodeSparseRequest parses a sparse RPC request.
func DecodeSparseRequest(b []byte) (*SparseRequest, error) {
	r := reader{b: b}
	nets, err := r.count(4)
	if err != nil {
		return nil, fmt.Errorf("core: sparse request nets: %w", err)
	}
	out := &SparseRequest{Nets: make([]string, nets)}
	for i := range out.Nets {
		if out.Nets[i], err = r.str(); err != nil {
			return nil, fmt.Errorf("core: sparse request nets: %w", err)
		}
	}
	n, err := r.count(sparseEntryHeader + 4)
	if err != nil {
		return nil, err
	}
	// Measure, then decode into exactly-sized slabs.
	measure := r
	var bags, indices int
	for i := 0; i < n; i++ {
		if len(measure.b) < sparseEntryHeader {
			return nil, errTruncated
		}
		measure.b = measure.b[sparseEntryHeader:]
		nb, ni, err := measure.skipBags()
		if err != nil {
			return nil, err
		}
		bags, indices = bags+nb, indices+ni
	}
	slab := newBagSlab(bags, indices)
	out.Entries = make([]SparseEntry, n)
	for i := range out.Entries {
		e := &out.Entries[i]
		e.Net = int32(binary.LittleEndian.Uint32(r.b))
		e.TableID = int32(binary.LittleEndian.Uint32(r.b[4:]))
		e.PartIndex = int32(binary.LittleEndian.Uint32(r.b[8:]))
		e.NumParts = int32(binary.LittleEndian.Uint32(r.b[12:]))
		r.b = r.b[sparseEntryHeader:]
		if uint32(e.Net) >= uint32(nets) {
			return nil, fmt.Errorf("core: sparse request entry %d names net %d of %d", i, e.Net, nets)
		}
		if e.Bags, err = slab.decode(&r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pooledSlot is one entry of a sparse response being laid out or read:
// its header, and where its pooled rows sit in the body.
type pooledSlot struct {
	TableID, PartIndex int32
	Rows, Cols         int32
	// n is how many floats the entry carries: Cols for each of the Rows
	// bags that was not empty.
	n int
	// off is the byte offset of those floats in the body.
	off int
}

// pooledHeader is an entry's fixed part: four ids and the float count.
const pooledHeader = 20

// sparseResponseSize is the body size of a response with the given
// entries.
func sparseResponseSize(slots []pooledSlot) int64 {
	size := int64(4)
	for i := range slots {
		size += pooledHeader + 4*int64(slots[i].n)
	}
	return size
}

// layoutSparseResponse allocates a response body for the given entry
// shapes — once, exactly sized, 4-byte aligned — writes the entry count
// and every entry header in place, and records each slot's region
// offset. The shard pools straight into the regions, writing each
// exactly once (handleRun); EncodeSparseResponse copies into them.
func layoutSparseResponse(slots []pooledSlot) []byte {
	body := alignedBytes(int(sparseResponseSize(slots)))
	binary.LittleEndian.PutUint32(body, uint32(len(slots)))
	off := 4
	for i := range slots {
		s := &slots[i]
		binary.LittleEndian.PutUint32(body[off:], uint32(s.TableID))
		binary.LittleEndian.PutUint32(body[off+4:], uint32(s.PartIndex))
		binary.LittleEndian.PutUint32(body[off+8:], uint32(s.Rows))
		binary.LittleEndian.PutUint32(body[off+12:], uint32(s.Cols))
		binary.LittleEndian.PutUint32(body[off+16:], uint32(s.n))
		s.off = off + pooledHeader
		off = s.off + 4*s.n
	}
	return body
}

// region is the slot's float bytes within body.
func (s *pooledSlot) region(body []byte) []byte {
	return body[s.off : s.off+4*s.n]
}

// pooledReader walks a sparse response's entries in place: each next
// yields one header and the undecoded wire bytes of its pooled rows, so
// the main shard moves them from the response to the embedding matrix
// in one copy (rpcOp) and a forwarding shard into its own response.
type pooledReader struct {
	r reader
	// left is how many entries remain.
	left int
}

func readPooled(b []byte) (pooledReader, error) {
	p := pooledReader{r: reader{b: b}}
	var err error
	p.left, err = p.r.count(pooledHeader)
	return p, err
}

func (p *pooledReader) next() (pooledSlot, []byte, error) {
	if len(p.r.b) < pooledHeader-4 {
		return pooledSlot{}, nil, errTruncated
	}
	s := pooledSlot{
		TableID:   int32(binary.LittleEndian.Uint32(p.r.b)),
		PartIndex: int32(binary.LittleEndian.Uint32(p.r.b[4:])),
		Rows:      int32(binary.LittleEndian.Uint32(p.r.b[8:])),
		Cols:      int32(binary.LittleEndian.Uint32(p.r.b[12:])),
	}
	p.r.b = p.r.b[16:]
	region, err := p.r.f32Region()
	if err != nil {
		return pooledSlot{}, nil, err
	}
	s.n = len(region) / 4
	// Whole rows, no more of them than bags. 64-bit: a hostile rows×cols
	// must not wrap into a fit.
	if s.Rows < 0 || s.Cols < 0 || int64(s.n) > int64(s.Rows)*int64(s.Cols) || (s.n > 0 && s.n%int(s.Cols) != 0) {
		return pooledSlot{}, nil, fmt.Errorf("core: pooled entry has %d values for %dx%d", s.n, s.Rows, s.Cols)
	}
	p.left--
	return s, region, nil
}

// EncodeSparseResponse serializes pooled results.
func EncodeSparseResponse(resp *SparseResponse) []byte {
	slots := make([]pooledSlot, len(resp.Entries))
	for i, e := range resp.Entries {
		slots[i] = pooledSlot{TableID: e.TableID, PartIndex: e.PartIndex, Rows: e.Rows, Cols: e.Cols, n: len(e.Data)}
	}
	body := layoutSparseResponse(slots)
	for i := range slots {
		putF32s(slots[i].region(body), resp.Entries[i].Data)
	}
	return body
}

// DecodeSparseResponse parses pooled results.
func DecodeSparseResponse(b []byte) (*SparseResponse, error) {
	measure, err := readPooled(b)
	if err != nil {
		return nil, err
	}
	n, total := measure.left, 0
	for i := 0; i < n; i++ {
		s, _, err := measure.next()
		if err != nil {
			return nil, err
		}
		total += s.n
	}
	out := &SparseResponse{Entries: make([]PooledEntry, n)}
	flat := make([]float32, total)
	p, _ := readPooled(b)
	for i := range out.Entries {
		s, region, _ := p.next() // validated by the measuring walk
		data := flat[:s.n:s.n]
		flat = flat[s.n:]
		getF32s(data, region)
		out.Entries[i] = PooledEntry{TableID: s.TableID, PartIndex: s.PartIndex, Rows: s.Rows, Cols: s.Cols, Data: data}
	}
	return out, nil
}

// EncodeRankingRequest serializes a ranking request.
func EncodeRankingRequest(req *RankingRequest) []byte {
	nets, tids := sortedKeys(req.Dense), sortedBagKeys(req.Bags)
	size := 8 + 4 + 4 + 4
	for _, name := range nets {
		size += 4 + len(name) + 12 + 4*len(req.Dense[name].Data)
	}
	for _, tid := range tids {
		size += 4 + bagsSize(req.Bags[tid])
	}
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, size), req.ID)
	b = appendU32(b, uint32(req.Items))
	b = appendU32(b, uint32(len(nets)))
	for _, name := range nets {
		m := req.Dense[name]
		b = appendStr(b, name)
		b = appendU32(b, uint32(m.Rows))
		b = appendU32(b, uint32(m.Cols))
		b = appendU32(b, uint32(len(m.Data)))
		b = appendF32s(b, m.Data)
	}
	b = appendU32(b, uint32(len(tids)))
	for _, tid := range tids {
		b = appendU32(b, uint32(tid))
		b = appendBags(b, req.Bags[tid])
	}
	return b
}

// Least bytes a dense net (name length, shape, float count) and a
// table's bag list (id, bag count) occupy.
const (
	rankDenseMin = 16
	rankTableMin = 8
)

// DecodeRankingRequest parses a ranking request.
func DecodeRankingRequest(b []byte) (*RankingRequest, error) {
	r := reader{b: b}
	id, err := r.u64()
	if err != nil {
		return nil, err
	}
	items, err := r.u32()
	if err != nil {
		return nil, err
	}
	nd, err := r.count(rankDenseMin)
	if err != nil {
		return nil, err
	}
	out := &RankingRequest{ID: id, Items: int32(items), Dense: make(map[string]*tensor.Matrix, nd)}
	for i := 0; i < nd; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		rows, err := r.u32()
		if err != nil {
			return nil, err
		}
		cols, err := r.u32()
		if err != nil {
			return nil, err
		}
		region, err := r.f32Region()
		if err != nil {
			return nil, err
		}
		if uint64(len(region)/4) != uint64(rows)*uint64(cols) {
			return nil, fmt.Errorf("core: dense %q has %d values for %dx%d", name, len(region)/4, rows, cols)
		}
		data := make([]float32, len(region)/4)
		getF32s(data, region)
		out.Dense[name] = tensor.FromSlice(int(rows), int(cols), data)
	}
	nb, err := r.count(rankTableMin)
	if err != nil {
		return nil, err
	}
	measure := r
	var bags, indices int
	for i := 0; i < nb; i++ {
		if _, err := measure.u32(); err != nil {
			return nil, err
		}
		n, k, err := measure.skipBags()
		if err != nil {
			return nil, err
		}
		bags, indices = bags+n, indices+k
	}
	slab := newBagSlab(bags, indices)
	out.Bags = make(map[int32][]embedding.Bag, nb)
	for i := 0; i < nb; i++ {
		tid, err := r.u32()
		if err != nil {
			return nil, err
		}
		if out.Bags[int32(tid)], err = slab.decode(&r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeRankingResponse serializes scores.
func EncodeRankingResponse(resp *RankingResponse) []byte {
	b := appendU32(make([]byte, 0, 4+4*len(resp.Scores)), uint32(len(resp.Scores)))
	return appendF32s(b, resp.Scores)
}

// DecodeRankingResponse parses scores.
func DecodeRankingResponse(b []byte) (*RankingResponse, error) {
	r := reader{b: b}
	region, err := r.f32Region()
	if err != nil {
		return nil, err
	}
	scores := make([]float32, len(region)/4)
	getF32s(scores, region)
	return &RankingResponse{Scores: scores}, nil
}

func sortedKeys(m map[string]*tensor.Matrix) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func sortedBagKeys(m map[int32][]embedding.Bag) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
