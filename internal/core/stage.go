package core

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// The staged table-set transaction: the one way a sparse shard's table
// set changes over the wire. Table storage is immutable once installed
// (Section III-A1), so every change — a table migrating in, a replica
// rebuilding from a peer, a publisher landing fresh rows — is the same
// operation: fill a shadow copy, cut it over at a new epoch.
//
//	stage.begin(txn, shape, base)   stage storage for one table: empty,
//	                                or a clone of the held copy
//	stage.put(txn, table, rows)*    land encoded rows in it
//	stage.commit(txn) | abort(txn)  install every staged table of the txn
//	                                under one lock hold and one epoch
//	                                bump, or discard them
//	table.list / table.read         what a shard holds, and its rows
//
// Rows travel in one form, the cold tier's encoded bytes. Readers in
// flight keep the old copy; the next request sees the new one. The
// drivers (Migrator, RebuildFromPeer, Publisher) are policies over this
// primitive: which shard to read from, which base to stage on, what the
// transaction id means.

// anonTxn splits the transaction id space. Ids below it are model
// versions: committing one raises the shard's model_version to it.
// Drivers that move rows without changing the model (migration, rebuild)
// draw ids from anonTxn upward, so they can never collide with a
// publisher's staging at the same shard.
const anonTxn = uint64(1) << 63

// defaultChunkRows bounds rows per table.read / stage.put call when the
// driver does not say.
const defaultChunkRows = 4096

// stagedTable is one table's shadow copy inside a transaction.
type stagedTable struct {
	rows rowStore
	// base is the installed copy a clone was taken from (nil for an empty
	// stage): commit refuses the stage unless that copy is still the one
	// installed, so rows committed in between are never silently undone.
	base embedding.Table
}

// shapeOf describes a held table for the wire.
func shapeOf(key tableKey, t embedding.Table) (TableShape, rowStore, error) {
	rows, enc, err := rowsOf(t)
	if err != nil {
		return TableShape{}, nil, fmt.Errorf("table %d part %d: %w", key.id, key.part, err)
	}
	cold := coldOf(t)
	return TableShape{
		TableID: int32(key.id), PartIndex: int32(key.part),
		Rows: int32(cold.NumRows()), Dim: int32(cold.Dim()), Enc: enc,
	}, rows, nil
}

func (s *SparseShard) held(key tableKey) (embedding.Table, error) {
	s.mu.RLock()
	tab, ok := s.tables[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("does not hold table %d part %d", key.id, key.part)
	}
	return tab, nil
}

func (s *SparseShard) handleStageBegin(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[StageBegin](body)
	if err != nil {
		return nil, err
	}
	key := m.Shape.key()
	st := &stagedTable{}
	if m.Base == StageClone {
		tab, err := s.held(key)
		if err != nil {
			return nil, err
		}
		shape, rows, err := shapeOf(key, tab)
		if err != nil {
			return nil, err
		}
		if shape != m.Shape {
			return nil, fmt.Errorf("clone staged as %+v but held as %+v", m.Shape, shape)
		}
		// Clone outside the lock: storage is immutable, so the copy is
		// consistent while lookups proceed.
		st.rows, st.base = cloneRows(rows), tab
	} else if st.rows, err = newRowStore(m.Shape); err != nil {
		return nil, err
	}
	s.mu.Lock()
	txn := s.staging[m.Txn]
	if txn == nil {
		txn = make(map[tableKey]*stagedTable)
		s.staging[m.Txn] = txn
	}
	txn[key] = st
	s.mu.Unlock()
	return nil, nil
}

func (s *SparseShard) handleStagePut(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[StagePut](body)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	st := s.staging[m.Txn][tableKey{id: int(m.TableID), part: int(m.PartIndex)}]
	s.mu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("put into txn %d table %d part %d without begin", m.Txn, m.TableID, m.PartIndex)
	}
	// One driver fills a staged table sequentially, so the preallocated
	// storage needs no lock of its own; SetRowRange refuses rows that are
	// not whole strides or fall outside the staged shape.
	if _, err := st.rows.SetRowRange(int(m.RowStart), m.Rows); err != nil {
		return nil, err
	}
	s.met.stageBytes.Add(int64(len(m.Rows)))
	return nil, nil
}

func (s *SparseShard) handleStageCommit(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[StageEnd](body)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	txn, ok := s.staging[m.Txn]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("commit of txn %d without begin", m.Txn)
	}
	delete(s.staging, m.Txn)
	// Resolve every stage before touching the table set: a refused commit
	// installs nothing.
	installs := make(map[tableKey]embedding.Table, len(txn))
	for _, key := range sortedTableKeys(txn) {
		st := txn[key]
		if st.base != nil {
			cur, held := s.tables[key]
			if !held {
				// Migrated away (or released) since begin: the new holder
				// gets its rows from the driver directly; installing here
				// would resurrect a dropped copy.
				continue
			}
			if cur != st.base {
				s.mu.Unlock()
				return nil, fmt.Errorf("table %d part %d was replaced since txn %d cloned it; retry", key.id, key.part, m.Txn)
			}
		}
		if installs[key], err = tableOf(st.rows); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	for key, tab := range installs {
		// The new copy starts with a cold cache: tierWrap fronts it with
		// an empty one (a cache belongs to one table copy) and keeps the
		// staged encoding as-is.
		s.tables[key] = s.tierWrap(key.id, tab)
		if txn[key].base == nil {
			// A table filled from empty arrived here to stay: this shard
			// is authoritative for the key again.
			delete(s.forwards, key)
		}
	}
	s.mu.Unlock()
	epoch := s.epoch.Add(1)
	if m.Txn < anonTxn {
		for {
			cur := s.modelVersion.Load()
			if m.Txn <= cur || s.modelVersion.CompareAndSwap(cur, m.Txn) {
				break
			}
		}
	}
	s.retier()
	return encodeMsg(&CutoverAck{Epoch: epoch, Version: s.ModelVersion(), Tables: int32(len(installs))}), nil
}

// handleStageAbort discards a transaction's staged tables — the cleanup
// a driver fires when a stream fails partway, so the shard does not
// strand table-sized buffers. Aborting an unknown (or already committed)
// transaction is a no-op, so cleanup is safe to fire unconditionally.
func (s *SparseShard) handleStageAbort(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[StageEnd](body)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	delete(s.staging, m.Txn)
	s.mu.Unlock()
	return nil, nil
}

// handleTableList reports every table/part the shard holds, with shapes
// and cold-tier encodings: one consistent snapshot of the table set.
func (s *SparseShard) handleTableList(trace.Context, []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := &TableList{Tables: make([]TableShape, 0, len(s.tables))}
	for _, key := range sortedTableKeys(s.tables) {
		shape, _, err := shapeOf(key, s.tables[key])
		if err != nil {
			return nil, err
		}
		out.Tables = append(out.Tables, shape)
	}
	return encodeMsg(out), nil
}

func (s *SparseShard) handleTableRead(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[TableRead](body)
	if err != nil {
		return nil, err
	}
	key := tableKey{id: int(m.TableID), part: int(m.PartIndex)}
	tab, err := s.held(key)
	if err != nil {
		return nil, err
	}
	shape, rows, err := shapeOf(key, tab)
	if err != nil {
		return nil, err
	}
	lo, hi := int(m.RowStart), int(m.RowStart)+int(m.RowCount)
	if hi > int(shape.Rows) {
		return nil, fmt.Errorf("read of rows [%d, %d) of %d", lo, hi, shape.Rows)
	}
	return encodeMsg(&TableRows{Shape: shape, Rows: rows.AppendRowRange(nil, lo, hi)}), nil
}

func (s *SparseShard) handleTableForward(_ trace.Context, body []byte) ([]byte, error) {
	m, err := decodeMsg[TableForward](body)
	if err != nil {
		return nil, err
	}
	caller, err := s.forwardCaller(m.Addr)
	if err != nil {
		return nil, fmt.Errorf("dialing forward %s (%s): %w", m.Service, m.Addr, err)
	}
	s.BeginForward(int(m.TableID), int(m.PartIndex), m.Service, caller, m.Release)
	return encodeMsg(&CutoverAck{Epoch: s.Epoch(), Version: s.ModelVersion()}), nil
}

// ModelVersion returns the highest committed model version (0 before any
// publish) — the freshness gauge the publisher's lag probe reads.
func (s *SparseShard) ModelVersion() uint64 { return s.modelVersion.Load() }

// ShardEndpoint addresses one sparse shard's server for control-plane
// drivers.
type ShardEndpoint struct {
	// Service is the shard's service name ("sparse3").
	Service string
	// Addr is the server's dialable address, handed to migration sources
	// so they can forward straggler lookups to destinations.
	Addr string
	// Caller issues control-plane RPCs to the shard. It must be a plain
	// connection, never hedged: hedging a stage.commit would re-issue it
	// against a store that already consumed the transaction.
	Caller rpc.Caller
}

// shardCall issues one control-plane call to a shard.
type shardCall func(method string, body []byte) ([]byte, error)

// call returns the endpoint's shardCall, drawing call ids from rec.
func (ep ShardEndpoint) call(rec *trace.Recorder) shardCall {
	return func(method string, body []byte) ([]byte, error) {
		resp, err := rpc.SyncCall(ep.Caller, &rpc.Request{Method: method, CallID: rec.NextID(), Body: body})
		if err != nil {
			return nil, fmt.Errorf("core: %s %s: %w", ep.Service, method, err)
		}
		return resp.Body, nil
	}
}

// listTables is the drivers' shape probe: what the shard holds, and in
// which shapes and encodings.
func listTables(shard shardCall) ([]TableShape, error) {
	out, err := shard(MethodTableList, nil)
	if err != nil {
		return nil, err
	}
	list, err := decodeMsg[TableList](out)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", MethodTableList, err)
	}
	return list.Tables, nil
}

// findShape picks one table out of a listTables result.
func findShape(shapes []TableShape, id, part int) (TableShape, bool) {
	for _, sh := range shapes {
		if int(sh.TableID) == id && int(sh.PartIndex) == part {
			return sh, true
		}
	}
	return TableShape{}, false
}

func commitTxn(shard shardCall, txn uint64) (*CutoverAck, error) {
	out, err := shard(MethodStageCommit, encodeMsg(&StageEnd{Txn: txn}))
	if err != nil {
		return nil, err
	}
	return decodeMsg[CutoverAck](out)
}

// abortTxn is best-effort cleanup after a failed stream: the error that
// matters is the one that caused it.
func abortTxn(shard shardCall, txn uint64) {
	_, _ = shard(MethodStageAbort, encodeMsg(&StageEnd{Txn: txn}))
}

// copyTable stages an empty table of the given shape in dst's
// transaction txn and fills it chunk by chunk from src (table.read →
// stage.put), returning the bytes streamed. The caller commits or
// aborts. This is the only row-copy loop: migration runs it between two
// shards, rebuild runs it from a peer into the local shard.
func copyTable(src, dst shardCall, txn uint64, shape TableShape, chunkRows int) (int64, error) {
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows
	}
	step := int32(min(chunkRows, int(shape.Rows)))
	stride, err := tierEncStride(shape.Enc, shape.Dim)
	if err != nil {
		return 0, err
	}
	if _, err := dst(MethodStageBegin, encodeMsg(&StageBegin{Txn: txn, Shape: shape, Base: StageEmpty})); err != nil {
		return 0, err
	}
	var moved int64
	for row := int32(0); row < shape.Rows; row += step {
		count := min(step, shape.Rows-row)
		out, err := src(MethodTableRead, encodeMsg(&TableRead{
			TableID: shape.TableID, PartIndex: shape.PartIndex, RowStart: row, RowCount: count,
		}))
		if err != nil {
			return moved, err
		}
		chunk, err := decodeMsg[TableRows](out)
		if err != nil {
			return moved, fmt.Errorf("core: %s: %w", MethodTableRead, err)
		}
		if chunk.Shape != shape || len(chunk.Rows) != int(count)*stride {
			return moved, fmt.Errorf("core: table %d part %d changed mid-stream: read %d bytes of %+v, want %d rows of %+v",
				shape.TableID, shape.PartIndex, len(chunk.Rows), chunk.Shape, count, shape)
		}
		if _, err := dst(MethodStagePut, encodeMsg(&StagePut{
			Txn: txn, TableID: shape.TableID, PartIndex: shape.PartIndex, RowStart: row, Rows: chunk.Rows,
		})); err != nil {
			return moved, err
		}
		moved += int64(len(chunk.Rows))
	}
	return moved, nil
}
