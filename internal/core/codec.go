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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// SparseEntry identifies one table (or one row-partition of a table) in a
// sparse RPC, together with the bags to pool. Net indexes the request's
// Nets. PartIndex/NumParts are (0, 1) for whole tables; for partitions,
// bag indices are already localized (logical/NumParts) by the caller.
//
// SparseRequest and SparseEntry are the authoring form of a sparse.run
// body — tests, tools and the benchmark's replay read and write them
// through EncodeSparseRequest / DecodeSparseRequest. The serving path
// never builds one: the main shard lays a body out from flat bag lists
// (rpcOp.layout) and a shard walks it in place (sparseReader).
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

// TableBags is one table's raw sparse IDs in a ranking request: one bag
// per item, in flat form.
type TableBags struct {
	TableID int32
	embedding.BagList
}

// RankingRequest is a workload request as the main shard serves it:
// per-net dense features plus per-table raw sparse ID bags, the bags in
// the flat form they have on the wire. A decoded request's bag lists are
// views of the body it was decoded from and are only ever read.
type RankingRequest struct {
	ID    uint64
	Items int32
	// Dense holds one matrix per net, keyed by net name.
	Dense map[string]*tensor.Matrix
	// Bags holds one entry per table, in ascending TableID, no ID twice.
	Bags []TableBags
}

// BagsOf returns table id's bag list.
func (r *RankingRequest) BagsOf(id int32) (embedding.BagList, bool) {
	// A request that carries tables 0..n-1 — every one a client of this
	// repository builds — has table id at position id.
	if i := int(id); i >= 0 && i < len(r.Bags) && r.Bags[i].TableID == id {
		return r.Bags[i].BagList, true
	}
	i, ok := slices.BinarySearchFunc(r.Bags, id, func(t TableBags, id int32) int { return cmp.Compare(t.TableID, id) })
	if !ok {
		return embedding.BagList{}, false
	}
	return r.Bags[i].BagList, true
}

// RankingResponse carries one score per item.
type RankingResponse struct {
	Scores []float32
}

var errTruncated = errors.New("core: truncated payload")

// Every encoder below computes its message's size first and fills one
// buffer of exactly that capacity, so the append helpers never grow it;
// every decoder bounds each wire count by the bytes left before it
// sizes anything by it.
//
// A sparse.run bag list is written n, len[0..n), idx[0..Σlen): the bag
// count, every bag's length, then every bag's indices back to back.
// Lengths and indices are two arrays of 32-bit values, which on a
// little-endian host is how a BagList already sits in memory — so a
// list's indices move into a body with one memmove, a list is read out of
// one as two slices over the body's bytes, and it is at no hop turned into
// per-bag structures.
//
// A rank bag list is written n, then every length as an unsigned LEB128
// varint, zero bytes to a multiple of 4, then the indices: most bags of
// a ranking request are empty, and a length under 128 takes one byte. The
// padding keeps the indices readable in place; the lengths are expanded
// once per request (DecodeRankingRequest).

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

// bagListSize is the wire size of a sparse.run list of n bags holding k
// indices.
func bagListSize(n, k int) int { return 4 + 4*n + 4*k }

// varintLensSize is the wire size of lens as rank lengths: one varint
// each (a length taken as the uint32 it is on the wire), padded to a
// multiple of 4.
func varintLensSize(lens []int32) int {
	n := 0
	for _, k := range lens {
		n += (bits.Len32(uint32(k)|1) + 6) / 7
	}
	return (n + 3) &^ 3
}

// appendRankBagList writes l in rank form: its count, its lengths as
// padded varints, then a memmove of its indices.
func appendRankBagList(b []byte, l embedding.BagList) []byte {
	b = appendU32(b, uint32(len(l.Lens)))
	at := len(b)
	for _, k := range l.Lens {
		b = binary.AppendUvarint(b, uint64(uint32(k)))
	}
	for (len(b)-at)%4 != 0 {
		b = append(b, 0)
	}
	at = len(b)
	b = b[:at+4*len(l.Indices)]
	putI32s(b[at:], l.Indices)
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

var errLenTopBit = errors.New("core: bag length of 2³¹ or more")

// sumLens adds up a bag list's lengths and counts the non-zero ones. The
// sum is taken in 64 bits, so no set of lengths can wrap into one that
// fits; ok is false when some length has its top bit set — 2³¹ or more on
// the wire, negative in memory.
func sumLens(lens []int32) (sum uint64, present int, ok bool) {
	var top int32
	for _, k := range lens {
		top |= k
		sum += uint64(uint32(k))
		if k != 0 {
			present++
		}
	}
	return sum, present, top >= 0
}

// bagList reads one sparse.run bag list in place — the one reader of that
// layout, under the typed decoder and the shard's handler: the list comes
// back as views of the payload where the host can read it there
// (viewI32s), and with it how many of its bags are non-empty. The bag
// count is bounded by the bytes left before the lengths are looked at, and
// their sum (sumLens) before the indices are.
func (r *reader) bagList() (l embedding.BagList, present int, err error) {
	n, err := r.count(4)
	if err != nil {
		return l, 0, err
	}
	l.Lens = viewI32s(r.take(4 * n))
	sum, present, ok := sumLens(l.Lens)
	if !ok {
		return l, 0, errLenTopBit
	}
	if sum > uint64(len(r.b)/4) {
		return l, 0, errTruncated
	}
	l.Indices = viewI32s(r.take(4 * int(sum)))
	return l, present, nil
}

// uvarints reads n varint lengths from the front of b, writing them to
// lens when it is not nil, and returns the bytes they took and their sum.
func uvarints(b []byte, n int, lens []int32) (at int, sum uint64, err error) {
	for i := 0; i < n; i++ {
		var v uint64
		for shift := 0; ; shift += 7 {
			if shift == 35 {
				return 0, 0, errors.New("core: bag length varint of more than 5 bytes")
			}
			if at == len(b) {
				return 0, 0, errTruncated
			}
			c := b[at]
			at++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
		}
		if v >= 1<<31 {
			return 0, 0, errLenTopBit
		}
		sum += v
		if lens != nil {
			lens[i] = int32(v)
		}
	}
	return at, sum, nil
}

// sumShort adds up b's bytes and reports whether each is under 0x80 —
// whether b is len(b) one-byte varints — eight bytes to a step.
func sumShort(b []byte) (sum uint64, short bool) {
	const lo, hi = 0x00ff00ff00ff00ff, 0x8080808080808080
	var or uint64
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		or |= x
		// Four 16-bit lanes of byte pairs, then their sum in the top lane.
		x = x&lo + x>>8&lo
		sum += x * 0x0001000100010001 >> 48
	}
	for _, c := range b {
		or |= uint64(c)
		sum += uint64(c)
	}
	return sum, or&hi == 0
}

// rankBagList reads one rank bag list: its count, bounded at one byte a
// bag; its varint lengths, each under 2³¹ and at most 5 bytes, written to
// lens when lens is not nil (the caller sized it by the count, which a
// first walk returned); the padding, which must be zero; and the indices,
// whose count — the lengths' sum, taken in 64 bits — is bounded by the
// bytes left before they are looked at. The indices come back as a view
// of the payload where the host can read them there, and only when lens
// is not nil: a walk without it checks and measures.
func (r *reader) rankBagList(lens []int32) (n int, indices []int32, err error) {
	if n, err = r.count(1); err != nil {
		return 0, nil, err
	}
	b, at := r.b, n
	sum, short := sumShort(b[:n])
	if short {
		// Every length takes one byte: the common case, checked and summed
		// eight bytes at a time.
		if lens != nil {
			for i, c := range b[:n] {
				lens[i] = int32(c)
			}
		}
	} else if at, sum, err = uvarints(b, n, lens); err != nil {
		return 0, nil, err
	}
	pad := -at & 3
	if at+pad > len(b) {
		return 0, nil, errTruncated
	}
	for _, c := range b[at : at+pad] {
		if c != 0 {
			return 0, nil, errors.New("core: non-zero padding after bag lengths")
		}
	}
	r.b = b[at+pad:]
	if sum > uint64(len(r.b)/4) {
		return 0, nil, errTruncated
	}
	idx := r.take(4 * int(sum))
	if lens != nil {
		indices = viewI32s(idx)
	}
	return n, indices, nil
}

// sparseEntryHeader is an entry's fixed part, four ids; with its bag
// count that is the least an entry occupies.
const sparseEntryHeader = 16

// A sparse request body is built like every other message — sized, then
// filled by appends into one allocation, 4-byte aligned so that whoever
// is handed it in process can read it in place: its head (the net table
// and the entry count), then per entry its ids and its bag list. The main
// shard sends no empty bag: a whole table's non-empty lengths are
// filtered in by appendPresent and its indices moved in, a row
// partition's bags that hold any of the part's indices filtered in by
// appendPart. rpcOp.layout and EncodeSparseRequest are the two builders.

func sparseHeadSize(nets []string) int {
	size := 4 + 4
	for _, net := range nets {
		size += 4 + len(net)
	}
	return size
}

func appendSparseHead(b []byte, nets []string, entries int) []byte {
	b = appendU32(b, uint32(len(nets)))
	for _, net := range nets {
		b = appendStr(b, net)
	}
	return appendU32(b, uint32(entries))
}

func appendEntryIDs(b []byte, net, table, part, numParts int) []byte {
	for _, id := range [...]int{net, table, part, numParts} {
		b = appendU32(b, uint32(id))
	}
	return b
}

// appendPresent writes the bag list l becomes without its empty bags —
// present of them, by sumLens: the non-zero lengths, then a memmove of
// the indices.
func appendPresent(b []byte, l embedding.BagList, present int) []byte {
	b = appendU32(b, uint32(present))
	at := len(b)
	b = b[:at+4*(present+len(l.Indices))]
	if present > 0 {
		// Every length is stored and only a non-zero one kept, with no
		// branch to mispredict: an empty bag's zero lands on the next
		// slot, at worst the first index's, which the memmove overwrites.
		lens, j := b[at:], 0
		for _, k := range l.Lens {
			binary.LittleEndian.PutUint32(lens[4*j:], uint32(k))
			if k != 0 {
				j++
			}
		}
	}
	putI32s(b[at+4*present:], l.Indices)
	return b
}

// countPart counts the indices of l that fall in one modulus partition,
// and the bags holding any of them.
func countPart(l embedding.BagList, part, numParts int) (indices, bags int) {
	pos := 0
	for _, k := range l.Lens {
		n := 0
		for _, x := range l.Indices[pos : pos+int(k)] {
			if p, _ := embedding.RowPart(int(x), numParts); p == part {
				n++
			}
		}
		pos += int(k)
		indices += n
		if n != 0 {
			bags++
		}
	}
	return indices, bags
}

// appendPart writes the bag list that l becomes when filtered to one
// modulus partition, rebased to the partition's local rows and rid of
// the bags left empty — n indices in bags bags, by countPart — and
// returns every bag's length in the part, the empty ones included: per
// bag of l, how many of its indices were the part's.
func appendPart(b []byte, l embedding.BagList, part, numParts, n, bags int) ([]byte, []int32) {
	lens := make([]int32, len(l.Lens))
	b = appendU32(b, uint32(bags))
	at := len(b)
	b = b[:at+4*(bags+n)]
	idx, pos := b[at+4*bags:], 0
	for bag, k := range l.Lens {
		for _, x := range l.Indices[pos : pos+int(k)] {
			if p, local := embedding.RowPart(int(x), numParts); p == part {
				binary.LittleEndian.PutUint32(idx, uint32(local))
				idx = idx[4:]
				lens[bag]++
			}
		}
		pos += int(k)
	}
	written := b[at:]
	for _, k := range lens {
		if k != 0 {
			binary.LittleEndian.PutUint32(written, uint32(k))
			written = written[4:]
		}
	}
	return b, lens
}

// EncodeSparseRequest serializes a sparse RPC request.
func EncodeSparseRequest(req *SparseRequest) []byte {
	size := sparseHeadSize(req.Nets)
	for i := range req.Entries {
		size += sparseEntryHeader + bagListSize(len(req.Entries[i].Bags), embedding.TotalLookups(req.Entries[i].Bags))
	}
	b := appendSparseHead(alignedBytes(size)[:0], req.Nets, len(req.Entries))
	for i := range req.Entries {
		e := &req.Entries[i]
		b = appendU32(appendEntryIDs(b, int(e.Net), int(e.TableID), int(e.PartIndex), int(e.NumParts)), uint32(len(e.Bags)))
		for _, bag := range e.Bags {
			b = appendU32(b, uint32(len(bag.Indices)))
		}
		for _, bag := range e.Bags {
			for _, x := range bag.Indices {
				b = appendU32(b, uint32(x))
			}
		}
	}
	return b
}

// sparseReader walks a sparse request's entries in place: each next
// yields one entry's ids and its bag list as views of the body, so a
// shard pools straight from the bytes the rpc layer handed it.
type sparseReader struct {
	nets []string
	r    reader
	// left is how many entries remain.
	left int
}

// sparseEntryView is one entry read in place.
type sparseEntryView struct {
	Net, TableID, PartIndex, NumParts int32
	embedding.BagList
	// present counts the entry's non-empty bags.
	present int
}

func readSparse(b []byte) (sparseReader, error) {
	p := sparseReader{r: reader{b: b}}
	nets, err := p.r.count(4)
	if err != nil {
		return p, fmt.Errorf("core: sparse request nets: %w", err)
	}
	p.nets = make([]string, nets)
	for i := range p.nets {
		if p.nets[i], err = p.r.str(); err != nil {
			return p, fmt.Errorf("core: sparse request nets: %w", err)
		}
	}
	p.left, err = p.r.count(sparseEntryHeader + 4)
	return p, err
}

func (p *sparseReader) next() (sparseEntryView, error) {
	if len(p.r.b) < sparseEntryHeader {
		return sparseEntryView{}, errTruncated
	}
	start := p.r.b
	e := sparseEntryView{
		Net:       int32(binary.LittleEndian.Uint32(start)),
		TableID:   int32(binary.LittleEndian.Uint32(start[4:])),
		PartIndex: int32(binary.LittleEndian.Uint32(start[8:])),
		NumParts:  int32(binary.LittleEndian.Uint32(start[12:])),
	}
	p.r.b = start[sparseEntryHeader:]
	if uint32(e.Net) >= uint32(len(p.nets)) {
		return e, fmt.Errorf("core: sparse request entry of table %d names net %d of %d", e.TableID, e.Net, len(p.nets))
	}
	var err error
	if e.BagList, e.present, err = p.r.bagList(); err != nil {
		return e, err
	}
	p.left--
	return e, nil
}

// DecodeSparseRequest parses a sparse RPC request into the authoring
// form; the result shares nothing with b.
func DecodeSparseRequest(b []byte) (*SparseRequest, error) {
	p, err := readSparse(b)
	if err != nil {
		return nil, err
	}
	out := &SparseRequest{Nets: p.nets, Entries: make([]SparseEntry, p.left)}
	for i := range out.Entries {
		e, err := p.next()
		if err != nil {
			return nil, err
		}
		own := embedding.BagList{Lens: e.Lens, Indices: slices.Clone(e.Indices)}
		out.Entries[i] = SparseEntry{Net: e.Net, TableID: e.TableID, PartIndex: e.PartIndex, NumParts: e.NumParts, Bags: own.Bags()}
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
// the main shard reads them where the response put them (rpcOp).
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

// EncodeRankingRequest serializes a ranking request, its tables in the
// order req.Bags holds them.
func EncodeRankingRequest(req *RankingRequest) []byte {
	nets := sortedKeys(req.Dense)
	size := 8 + 4 + 4 + 4
	for _, name := range nets {
		size += 4 + len(name) + 12 + 4*len(req.Dense[name].Data)
	}
	for i := range req.Bags {
		size += 4 + 4 + varintLensSize(req.Bags[i].Lens) + 4*len(req.Bags[i].Indices)
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
	b = appendU32(b, uint32(len(req.Bags)))
	for i := range req.Bags {
		b = appendU32(b, uint32(req.Bags[i].TableID))
		b = appendRankBagList(b, req.Bags[i].BagList)
	}
	return b
}

// Least bytes a dense net (name length, shape, float count) and a
// table's bag list (id, bag count) occupy.
const (
	rankDenseMin = 16
	rankTableMin = 8
)

// DecodeRankingRequest parses a ranking request. The indices of the
// result's bag lists are views of b wherever the host can read them in
// place, so b must stay as it is while the request is in use — which the
// rpc layer promises of every body it hands over. The lengths of every
// table are expanded into one []int32, sized by a first walk that checks
// every table: at least one byte a length, so at most 4 bytes for each
// byte of them. A net or a table named twice is refused: silently serving
// the later one would score a request its sender did not mean.
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
		if _, dup := out.Dense[name]; dup {
			return nil, fmt.Errorf("core: ranking request names dense net %q twice", name)
		}
		data := make([]float32, len(region)/4)
		getF32s(data, region)
		out.Dense[name] = tensor.FromSlice(int(rows), int(cols), data)
	}
	nb, err := r.count(rankTableMin)
	if err != nil {
		return nil, err
	}
	tables, bags := r, 0
	for i := 0; i < nb; i++ {
		if _, err := r.u32(); err != nil {
			return nil, err
		}
		n, _, err := r.rankBagList(nil)
		if err != nil {
			return nil, err
		}
		bags += n
	}
	r, lens := tables, make([]int32, bags)
	out.Bags = make([]TableBags, nb)
	ascending := true
	for i := range out.Bags {
		tid, _ := r.u32()
		n, indices, _ := r.rankBagList(lens) // checked by the first walk
		out.Bags[i] = TableBags{TableID: int32(tid), BagList: embedding.BagList{Lens: lens[:n:n], Indices: indices}}
		lens = lens[n:]
		ascending = ascending && (i == 0 || out.Bags[i-1].TableID < out.Bags[i].TableID)
	}
	if !ascending {
		// A sender may list its tables in any order; BagsOf searches, so
		// they are put in order here, which also brings a repeat together.
		slices.SortStableFunc(out.Bags, func(a, b TableBags) int { return cmp.Compare(a.TableID, b.TableID) })
		for i := 1; i < len(out.Bags); i++ {
			if out.Bags[i].TableID == out.Bags[i-1].TableID {
				return nil, fmt.Errorf("core: ranking request names table %d twice", out.Bags[i].TableID)
			}
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
