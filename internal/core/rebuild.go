package core

import (
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/trace"
)

// Replica rebuild: the fault-tolerance driver over the staged
// transaction (stage.go). A replacement replica (fresh process, empty
// table store) copies its entire table set from any healthy peer of the
// same shard — sparse-shard storage is immutable (Section III-A1), so
// every replica's copy is byte-identical and any of them can seed a
// rebuild. Rows stream in the peer's cold-tier encoding and commit
// through the same tierWrap path as a migration, so the rebuilt tables
// are bit-identical to the peer's and rejoin the rotation cold-cached —
// nothing of the peer's hot-row cache leaks into the replacement.

// RebuildStats summarizes one replica rebuild.
type RebuildStats struct {
	// Tables is how many tables/parts were rebuilt.
	Tables int
	// Bytes is the row data streamed from the peer.
	Bytes int64
	// Duration covers manifest fetch through final install.
	Duration time.Duration
}

// String renders the stats for logs.
func (st RebuildStats) String() string {
	return fmt.Sprintf("rebuilt %d tables, %.1f KiB streamed, in %v",
		st.Tables, float64(st.Bytes)/1024, st.Duration.Round(time.Millisecond))
}

// RebuildFromPeer copies every table a healthy peer holds into this
// shard: list the peer's table set, stage each table in the peer's
// native encoding in one transaction — the same copy loop a migration
// runs, with this shard as the in-process destination — and commit the
// set at once. The shard may be serving while it rebuilds, though the
// expected caller holds the replica out of rotation until the rebuild
// returns.
func (s *SparseShard) RebuildFromPeer(peer rpc.Caller) (RebuildStats, error) {
	start := time.Now() //lint:allow determinism rebuild wall time is operator telemetry
	var st RebuildStats
	src := ShardEndpoint{Service: s.ShardName + " peer", Caller: peer}.call(s.rec)
	dst := func(method string, body []byte) ([]byte, error) {
		return s.Handle(trace.Context{}, method, body)
	}
	held, err := listTables(src)
	if err != nil || len(held) == 0 {
		return st, err
	}
	rebuildStart := s.rec.Now()
	txn := anonTxn | s.rec.NextID()
	for _, shape := range held {
		n, err := copyTable(src, dst, txn, shape)
		st.Bytes += n
		if err != nil {
			abortTxn(dst, txn)
			return st, err
		}
	}
	ack, err := commitTxn(dst, txn)
	if err != nil {
		return st, err
	}
	st.Tables = int(ack.Tables)
	s.rec.Record(trace.Span{
		Layer: trace.LayerMigration,
		Name:  "rebuild/" + s.ShardName,
		Start: rebuildStart, Dur: s.rec.Now().Sub(rebuildStart),
	})
	st.Duration = time.Since(start) //lint:allow determinism rebuild wall time is operator telemetry
	return st, nil
}
