package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/sharding"
)

// Wire codecs for the sparse shards' control plane: load-summary
// collection and the staged table-set transaction (stage.go). Same
// minimal little-endian framing as the serving codecs in codec.go — the
// control plane rides the ordinary RPC channel, so a standalone
// deployment (drmserve processes) reshards, rebuilds and publishes
// exactly like the in-process cluster. These payloads arrive from peers:
// the decoder bounds every count and payload length by the bytes actually
// present before allocating, and each message's check rejects shapes,
// encodings and row ranges no table can have.

// Methods served by SparseShard.Handle.
const (
	MethodSparseRun    = "sparse.run"
	MethodSparseLoad   = "sparse.load"
	MethodStageBegin   = "stage.begin"
	MethodStagePut     = "stage.put"
	MethodStageCommit  = "stage.commit"
	MethodStageAbort   = "stage.abort"
	MethodTableList    = "table.list"
	MethodTableRead    = "table.read"
	MethodTableForward = "table.forward"
)

// LoadRequest asks a shard for its load summary; Reset additionally
// clears the live accumulator so the next collection window starts
// fresh.
type LoadRequest struct {
	Reset bool
}

// TableShape identifies one table (or row-partition) and the shape of
// its cold tier: Rows×Dim in encoding Enc (TierEnc*). Rows of a table
// travel as Rows·tierEncStride(Enc, Dim) encoded bytes.
type TableShape struct {
	TableID   int32
	PartIndex int32
	Rows      int32
	Dim       int32
	Enc       int32
}

func (sh TableShape) key() tableKey {
	return tableKey{id: int(sh.TableID), part: int(sh.PartIndex)}
}

// validTableShape bounds table dimensions the way the shard-file parsers
// do: rows·stride then fits comfortably in an int, and a 20-byte message
// cannot ask a shard to allocate more than a real table could need.
func validTableShape(rows, dim int) bool {
	return rows > 0 && dim > 0 && rows <= maxTableRows && dim <= maxTableDim
}

const (
	maxTableRows = 1 << 28
	maxTableDim  = 1 << 12
)

func (sh *TableShape) check() error {
	if sh.TableID < 0 || sh.PartIndex < 0 || !validTableShape(int(sh.Rows), int(sh.Dim)) {
		return fmt.Errorf("core: table %d part %d with shape %dx%d", sh.TableID, sh.PartIndex, sh.Rows, sh.Dim)
	}
	_, err := tierEncStride(sh.Enc, sh.Dim)
	return err
}

// What a staged table starts from.
const (
	// StageEmpty stages zeroed storage the driver fills completely
	// (migration, rebuild); committing it makes this shard authoritative
	// for the key.
	StageEmpty int32 = 0
	// StageClone stages a copy of the table the shard holds, so rows the
	// driver does not put carry over bit-exactly (publish).
	StageClone int32 = 1
)

// StageBegin opens staging for one table inside transaction Txn. For a
// clone the shape is a cross-check against the shard's copy — a driver
// working from a stale view of the table set must fail loudly, not
// corrupt staging.
type StageBegin struct {
	Txn   uint64
	Shape TableShape
	Base  int32
}

// StagePut lands encoded rows in a staged table starting at RowStart, in
// the encoding StageBegin declared.
type StagePut struct {
	Txn       uint64
	TableID   int32
	PartIndex int32
	RowStart  int32
	Rows      []byte
}

// StageEnd addresses a whole transaction: the body of stage.commit
// (install every staged table at one new epoch) and stage.abort (discard
// them).
type StageEnd struct {
	Txn uint64
}

// CutoverAck reports a table-set cutover (stage.commit, table.forward):
// the shard's new forwarding epoch, its model version, and how many
// staged tables a commit installed (clones of tables migrated away since
// begin are skipped).
type CutoverAck struct {
	Epoch   uint64
	Version uint64
	Tables  int32
}

// TableList is the table.list response: every table the shard holds, in
// (TableID, PartIndex) order.
type TableList struct {
	Tables []TableShape
}

// TableRead asks for RowCount rows of a held table starting at RowStart.
type TableRead struct {
	TableID   int32
	PartIndex int32
	RowStart  int32
	RowCount  int32
}

// TableRows is the table.read response: the rows in the cold tier's
// encoding plus the table's shape, so a reader streaming a table notices
// if the copy it is reading from was replaced mid-stream.
type TableRows struct {
	Shape TableShape
	Rows  []byte
}

// TableForward tells a migration source the destination is authoritative:
// the source installs a forwarding entry (dialing Addr for service
// Service) and, when Release is set, drops its local copy. Until
// released, the source keeps double-reading its retained copy —
// byte-identical to the destination's, since table storage is immutable.
type TableForward struct {
	TableID   int32
	PartIndex int32
	Service   string
	Addr      string
	Release   bool
}

// wireMsg is a control-plane message. It lists pointers to its fields
// once, in wire order; encodeMsg and decodeMsg below are the one codec
// every message goes through. Field types: uint64, int32, bool, string,
// []byte, []TableShape, and nested messages.
type wireMsg interface {
	fields() []any
}

// checker is implemented by messages with invariants beyond their field
// types; decodeMsg rejects a message whose check fails.
type checker interface {
	check() error
}

func encodeMsg(m wireMsg) []byte { return appendMsg(nil, m) }

func appendMsg(b []byte, m wireMsg) []byte {
	for _, f := range m.fields() {
		switch f := f.(type) {
		case *uint64:
			b = binary.LittleEndian.AppendUint64(b, *f)
		case *int32:
			b = appendU32(b, uint32(*f))
		case *bool:
			if *f {
				b = appendU32(b, 1)
			} else {
				b = appendU32(b, 0)
			}
		case *string:
			b = appendStr(b, *f)
		case *[]byte:
			b = append(appendU32(b, uint32(len(*f))), *f...)
		case *[]TableShape:
			b = appendU32(b, uint32(len(*f)))
			for i := range *f {
				b = appendMsg(b, &(*f)[i])
			}
		case wireMsg:
			b = appendMsg(b, f)
		default:
			panic(fmt.Sprintf("core: no wire form for field %T of %T", f, m))
		}
	}
	return b
}

// decodeMsg parses b as a message of type T.
func decodeMsg[T any, P interface {
	*T
	wireMsg
}](b []byte) (*T, error) {
	m := new(T)
	r := reader{b: b}
	if err := r.msg(P(m)); err != nil {
		return nil, err
	}
	return m, nil
}

func (r *reader) msg(m wireMsg) error {
	for _, f := range m.fields() {
		var err error
		switch f := f.(type) {
		case *uint64:
			*f, err = r.u64()
		case *int32:
			var v uint32
			v, err = r.u32()
			*f = int32(v)
		case *bool:
			var v uint32
			v, err = r.u32()
			*f = v != 0
		case *string:
			*f, err = r.str()
		case *[]byte:
			// count bounds the length prefix by what is left to read.
			var n int
			if n, err = r.count(1); err == nil {
				*f = append([]byte(nil), r.take(n)...)
			}
		case *[]TableShape:
			var n uint32
			if n, err = r.u32(); err == nil && uint64(n)*tableShapeWireSize > uint64(len(r.b)) {
				err = errTruncated
			}
			if err == nil {
				*f = make([]TableShape, n)
				for i := range *f {
					if err = r.msg(&(*f)[i]); err != nil {
						break
					}
				}
			}
		case wireMsg:
			err = r.msg(f)
		default:
			panic(fmt.Sprintf("core: no wire form for field %T of %T", f, m))
		}
		if err != nil {
			return err
		}
	}
	if c, ok := m.(checker); ok {
		return c.check()
	}
	return nil
}

// tableShapeWireSize is the encoded size of one TableShape.
const tableShapeWireSize = 5 * 4

func (m *LoadRequest) fields() []any { return []any{&m.Reset} }

func (sh *TableShape) fields() []any {
	return []any{&sh.TableID, &sh.PartIndex, &sh.Rows, &sh.Dim, &sh.Enc}
}

func (m *StageBegin) fields() []any { return []any{&m.Txn, &m.Shape, &m.Base} }

func (m *StageBegin) check() error {
	if m.Base != StageEmpty && m.Base != StageClone {
		return fmt.Errorf("core: stage begin with unknown base %d", m.Base)
	}
	return nil
}

func (m *StagePut) fields() []any {
	return []any{&m.Txn, &m.TableID, &m.PartIndex, &m.RowStart, &m.Rows}
}

// check bounds what a decoder can know; whether the rows fit the staged
// table is the shard's check (only it knows the staged shape).
func (m *StagePut) check() error {
	if m.RowStart < 0 {
		return fmt.Errorf("core: stage put at row %d", m.RowStart)
	}
	return nil
}

func (m *StageEnd) fields() []any { return []any{&m.Txn} }

func (m *CutoverAck) fields() []any { return []any{&m.Epoch, &m.Version, &m.Tables} }

func (m *TableList) fields() []any { return []any{&m.Tables} }

func (m *TableRead) fields() []any {
	return []any{&m.TableID, &m.PartIndex, &m.RowStart, &m.RowCount}
}

func (m *TableRead) check() error {
	if m.RowStart < 0 || m.RowCount <= 0 || int64(m.RowStart)+int64(m.RowCount) > maxTableRows {
		return fmt.Errorf("core: table read of %d rows at row %d", m.RowCount, m.RowStart)
	}
	return nil
}

func (m *TableRows) fields() []any { return []any{&m.Shape, &m.Rows} }

func (m *TableRows) check() error {
	stride, _ := tierEncStride(m.Shape.Enc, m.Shape.Dim)
	if len(m.Rows)%stride != 0 || len(m.Rows)/stride > int(m.Shape.Rows) {
		return fmt.Errorf("core: table rows carry %d bytes for %d rows of stride %d", len(m.Rows), m.Shape.Rows, stride)
	}
	return nil
}

func (m *TableForward) fields() []any {
	return []any{&m.TableID, &m.PartIndex, &m.Service, &m.Addr, &m.Release}
}

// EncodeLoadSummary serializes a load summary in deterministic key
// order.
func EncodeLoadSummary(s *sharding.LoadSummary) []byte {
	keys := s.Keys()
	b := appendU32(make([]byte, 0, 4+32*len(keys)), uint32(len(keys)))
	for _, k := range keys {
		l := s.Tables[k]
		b = appendU32(b, uint32(k.TableID))
		b = appendU32(b, uint32(k.PartIndex))
		b = binary.LittleEndian.AppendUint64(b, uint64(l.Lookups))
		b = binary.LittleEndian.AppendUint64(b, uint64(l.ServiceTime))
		b = binary.LittleEndian.AppendUint64(b, uint64(l.Calls))
	}
	return b
}

// DecodeLoadSummary parses a load summary.
func DecodeLoadSummary(b []byte) (*sharding.LoadSummary, error) {
	r := reader{b: b}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := sharding.NewLoadSummary()
	for i := uint32(0); i < n; i++ {
		var tid, part uint32
		var lookups, svc, calls uint64
		if tid, err = r.u32(); err != nil {
			return nil, err
		}
		if part, err = r.u32(); err != nil {
			return nil, err
		}
		if lookups, err = r.u64(); err != nil {
			return nil, err
		}
		if svc, err = r.u64(); err != nil {
			return nil, err
		}
		if calls, err = r.u64(); err != nil {
			return nil, err
		}
		out.Add(sharding.TableLoadKey{TableID: int(tid), PartIndex: int(part)}, sharding.TableLoad{
			Lookups: int64(lookups), ServiceTime: time.Duration(svc), Calls: int64(calls),
		})
	}
	return out, nil
}
