package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Publisher streams versioned model deltas to a serving deployment — the
// online continuation of the paper's publishing flow (Section III-A1:
// parameters "serialized from parameter servers to the respective
// inference shard"). Embedding row deltas route through the current
// sharding plan to every endpoint of every affected shard as one staged
// transaction per endpoint (stage.go): transaction id = model version,
// every touched table staged as a clone of the held copy, delta rows put
// over it, one commit. Dense-weight swaps go to the co-located engine.
// Delta rows arrive as fp32 and are re-encoded per-row into each table's
// cold-tier precision — row-wise quantization is independent per row, so
// a republished row is bit-identical to the same row in a full export.
type Publisher struct {
	// Engine is the main shard's engine: its live plan routes deltas and
	// its dense parameters are swapped in-process.
	Engine *Engine
	// Shards maps 1-based shard numbers to every endpoint that must
	// receive deltas (every replica store's server).
	Shards map[int][]ShardEndpoint
	// Rec allocates call IDs for the control-plane RPCs.
	Rec *trace.Recorder
	// ChunkRows bounds rows per stage.put call (default 4096).
	ChunkRows int
	// Obs, when non-nil, receives publish gauges: publish.version (high
	// water), publish.count, publish.rows, publish.bytes.
	Obs *obs.Registry
}

// TableDelta carries fresh fp32 values for a set of logical rows of one
// embedding table.
type TableDelta struct {
	TableID int
	// Rows lists logical row indices (whole-table coordinates; the
	// publisher maps them onto row partitions). Data holds len(Rows)×dim
	// values in the same order.
	Rows []int32
	Data []float32
}

// DeltaSet is one atomic publish: embedding row deltas plus an optional
// swap of the dense parameters, all activating at Version.
type DeltaSet struct {
	Version uint64
	Tables  []TableDelta
	// Dense, when non-nil, replaces the engine's dense-layer parameters
	// (shape-checked) after the embedding deltas commit.
	Dense []model.NetParams
}

// IdentityDelta builds a delta set that republishes rows already being
// served — real update traffic whose commit provably cannot change
// scores. It takes rowsPer rows (default 16) from each of the model's
// fp32 tables named in tables (nil = every table); each version samples
// a different contiguous row window.
func IdentityDelta(m *model.Model, tables []int, version uint64, rowsPer int) *DeltaSet {
	ds := &DeltaSet{Version: version}
	if rowsPer <= 0 {
		rowsPer = 16
	}
	if tables == nil {
		for id := range m.Tables {
			tables = append(tables, id)
		}
	}
	for _, id := range tables {
		dense, ok := m.Tables[id].(*embedding.Dense)
		if !ok {
			continue
		}
		n := rowsPer
		if n > dense.RowsN {
			n = dense.RowsN
		}
		start := int(version*2654435761) % dense.RowsN
		rows := make([]int32, 0, n)
		data := make([]float32, 0, n*dense.DimN)
		for k := 0; k < n; k++ {
			r := (start + k) % dense.RowsN
			rows = append(rows, int32(r))
			data = append(data, dense.Data[r*dense.DimN:(r+1)*dense.DimN]...)
		}
		ds.Tables = append(ds.Tables, TableDelta{TableID: id, Rows: rows, Data: data})
	}
	return ds
}

// PublishEvent is one endpoint's slice of a publish — the freshness
// timeline, mirroring the migration MoveEvent style.
type PublishEvent struct {
	Version  uint64
	Shard    int
	Service  string
	Addr     string
	Tables   int
	RowsSent int
	Bytes    int64
	Epoch    uint64
	Duration time.Duration
}

// PublishReport summarizes one Publish call.
type PublishReport struct {
	Version  uint64
	Events   []PublishEvent
	RowsSent int
	Bytes    int64
	// DenseSwapped reports whether the delta set replaced dense weights.
	DenseSwapped bool
	Duration     time.Duration
}

// String renders the report for logs.
func (r *PublishReport) String() string {
	dense := ""
	if r.DenseSwapped {
		dense = " + dense swap"
	}
	return fmt.Sprintf("publish v%d: %d endpoints, %d rows, %.1f KiB%s in %v",
		r.Version, len(r.Events), r.RowsSent, float64(r.Bytes)/1024, dense,
		r.Duration.Round(time.Millisecond))
}

// deltaUnit is one placement unit's share of a table delta: the local
// staging rows it must overwrite, paired with offsets into the delta's
// fp32 payload.
type deltaUnit struct {
	tableID, partIndex, numParts int
	localRows                    []int32 // sorted local row indices
	srcRows                      []int32 // delta payload row offsets, aligned with localRows
	dim                          int
	data                         []float32 // the delta's full payload
}

// planUnitsFor maps each table delta onto the plan's placement units,
// returning per-shard work lists. Modulus partitioning puts logical row
// r at (part r%numParts, local row r/numParts) — the same mapping
// embedding.PartitionRows uses.
func planUnitsFor(plan *sharding.Plan, deltas []TableDelta) (map[int][]*deltaUnit, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: publish: singular plans hold no sparse shards")
	}
	type placement struct {
		shard, partIndex, numParts int
	}
	where := make(map[int][]placement)
	for si := range plan.Shards {
		a := &plan.Shards[si]
		for _, id := range a.Tables {
			where[id] = append(where[id], placement{shard: a.Shard, partIndex: 0, numParts: 1})
		}
		for _, pr := range a.Parts {
			where[pr.TableID] = append(where[pr.TableID], placement{shard: a.Shard, partIndex: pr.PartIndex, numParts: pr.NumParts})
		}
	}
	out := make(map[int][]*deltaUnit)
	for di := range deltas {
		d := &deltas[di]
		if len(d.Rows) == 0 {
			continue
		}
		if len(d.Data)%len(d.Rows) != 0 {
			return nil, fmt.Errorf("core: publish: table %d delta has %d values for %d rows", d.TableID, len(d.Data), len(d.Rows))
		}
		dim := len(d.Data) / len(d.Rows)
		places, ok := where[d.TableID]
		if !ok {
			return nil, fmt.Errorf("core: publish: table %d is not placed by the current plan", d.TableID)
		}
		for _, pl := range places {
			u := &deltaUnit{
				tableID: d.TableID, partIndex: pl.partIndex, numParts: pl.numParts,
				dim: dim, data: d.Data,
			}
			for i, r := range d.Rows {
				if pl.numParts > 1 && int(r)%pl.numParts != pl.partIndex {
					continue
				}
				u.localRows = append(u.localRows, r/int32(pl.numParts))
				u.srcRows = append(u.srcRows, int32(i))
			}
			if len(u.localRows) == 0 {
				continue
			}
			sort.Sort(byLocalRow{u})
			out[pl.shard] = append(out[pl.shard], u)
		}
	}
	for _, units := range out {
		sort.Slice(units, func(i, j int) bool {
			if units[i].tableID != units[j].tableID {
				return units[i].tableID < units[j].tableID
			}
			return units[i].partIndex < units[j].partIndex
		})
	}
	return out, nil
}

// byLocalRow co-sorts a unit's local rows and payload offsets.
type byLocalRow struct{ u *deltaUnit }

func (s byLocalRow) Len() int { return len(s.u.localRows) }
func (s byLocalRow) Less(i, j int) bool {
	return s.u.localRows[i] < s.u.localRows[j]
}
func (s byLocalRow) Swap(i, j int) {
	s.u.localRows[i], s.u.localRows[j] = s.u.localRows[j], s.u.localRows[i]
	s.u.srcRows[i], s.u.srcRows[j] = s.u.srcRows[j], s.u.srcRows[i]
}

// encodeDeltaRows re-encodes a contiguous run of fp32 rows into a
// table's cold-tier wire encoding. Row-wise codecs are independent per
// row, so the bytes match a full-table encode of the same values.
func encodeDeltaRows(enc int32, rows []float32, n, dim int) ([]byte, error) {
	switch enc {
	case TierEncFP32:
		return (&embedding.Dense{RowsN: n, DimN: dim, Data: rows}).AppendRowRange(nil, 0, n), nil
	case TierEncFP16:
		return quant.EncodeFP16Rows(rows, n, dim).AppendRowRange(nil, 0, n), nil
	case TierEncInt8:
		return quant.QuantizeRows(rows, n, dim, quant.Bits8).AppendRowRange(nil, 0, n), nil
	case TierEncInt4:
		return quant.QuantizeRows(rows, n, dim, quant.Bits4).AppendRowRange(nil, 0, n), nil
	}
	return nil, fmt.Errorf("core: publish: unknown encoding %d", enc)
}

// Publish streams one delta set to every endpoint of every affected
// shard, committing per endpoint, then swaps dense weights. On a stream
// error the failed endpoint's transaction is aborted (best effort) and
// the error returned; endpoints already committed stay fresh — the
// publisher retries the version against the rest, and commit is
// idempotent in effect because republished rows are value-identical.
func (p *Publisher) Publish(ds *DeltaSet) (*PublishReport, error) {
	start := time.Now() //lint:allow determinism publish wall time is operator telemetry, not model input
	if ds.Version >= anonTxn {
		return nil, fmt.Errorf("core: publish: version %d outside the model-version id space", ds.Version)
	}
	report := &PublishReport{Version: ds.Version}
	byShard, err := p.unitsForCurrentPlan(ds)
	if err != nil {
		return nil, err
	}
	shards := make([]int, 0, len(byShard))
	for shard := range byShard {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		eps := p.Shards[shard]
		if len(eps) == 0 {
			return nil, fmt.Errorf("core: publish: no endpoints for shard %d", shard)
		}
		for _, ep := range eps {
			ev, err := p.publishToEndpoint(ep, shard, ds.Version, byShard[shard])
			if err != nil {
				abortTxn(ep.call(p.Rec), ds.Version)
				return nil, err
			}
			report.Events = append(report.Events, *ev)
			report.RowsSent += ev.RowsSent
			report.Bytes += ev.Bytes
		}
	}
	if ds.Dense != nil {
		if err := p.Engine.SwapDense(ds.Dense); err != nil {
			return nil, err
		}
		report.DenseSwapped = true
	}
	report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
	if p.Obs != nil {
		p.Obs.Gauge("publish.version").SetMax(int64(ds.Version))
		p.Obs.Counter("publish.count").Inc()
		p.Obs.Counter("publish.rows").Add(int64(report.RowsSent))
		p.Obs.Counter("publish.bytes").Add(report.Bytes)
	}
	return report, nil
}

// unitsForCurrentPlan routes the delta set through the engine's live
// plan. Dense-only delta sets produce an empty routing.
func (p *Publisher) unitsForCurrentPlan(ds *DeltaSet) (map[int][]*deltaUnit, error) {
	if len(ds.Tables) == 0 {
		return nil, nil
	}
	return planUnitsFor(p.Engine.Plan(), ds.Tables)
}

// publishToEndpoint stages every unit's table as a clone in one
// endpoint's transaction, puts the delta rows over it, and commits.
func (p *Publisher) publishToEndpoint(ep ShardEndpoint, shard int, version uint64, units []*deltaUnit) (*PublishEvent, error) {
	evStart := time.Now() //lint:allow determinism event duration is freshness-timeline telemetry
	ev := &PublishEvent{Version: version, Shard: shard, Service: ep.Service, Addr: ep.Addr}
	call := ep.call(p.Rec)
	// Probe the endpoint's actual shapes and encodings: replicas may
	// serve rebuilt stores, so trust each endpoint's own report.
	held, err := listTables(call)
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		shape, ok := findShape(held, u.tableID, u.partIndex)
		if !ok {
			return nil, fmt.Errorf("core: publish: %s does not hold table %d part %d", ep.Service, u.tableID, u.partIndex)
		}
		if int(shape.Dim) != u.dim {
			return nil, fmt.Errorf("core: publish: table %d part %d dim %d at %s, delta has %d",
				u.tableID, u.partIndex, shape.Dim, ep.Service, u.dim)
		}
		if last := u.localRows[len(u.localRows)-1]; last >= shape.Rows {
			return nil, fmt.Errorf("core: publish: table %d part %d row %d outside %d rows at %s",
				u.tableID, u.partIndex, last, shape.Rows, ep.Service)
		}
		if _, err := call(MethodStageBegin, encodeMsg(&StageBegin{Txn: version, Shape: shape, Base: StageClone})); err != nil {
			return nil, err
		}
		if err := p.putUnit(call, version, u, shape.Enc, ev); err != nil {
			return nil, err
		}
		ev.Tables++
	}
	ack, err := commitTxn(call, version)
	if err != nil {
		return nil, err
	}
	ev.Epoch = ack.Epoch
	ev.Duration = time.Since(evStart) //lint:allow determinism event duration is freshness-timeline telemetry
	return ev, nil
}

// putUnit sends one unit's delta rows as runs of consecutive local rows,
// re-encoded into the endpoint's cold-tier encoding.
func (p *Publisher) putUnit(call shardCall, version uint64, u *deltaUnit, enc int32, ev *PublishEvent) error {
	chunkRows := p.ChunkRows
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows
	}
	i := 0
	for i < len(u.localRows) {
		// Extend the run while local rows stay consecutive.
		j := i + 1
		for j < len(u.localRows) && j-i < chunkRows && u.localRows[j] == u.localRows[j-1]+1 {
			j++
		}
		n := j - i
		buf := make([]float32, n*u.dim)
		for k := 0; k < n; k++ {
			src := int(u.srcRows[i+k]) * u.dim
			copy(buf[k*u.dim:(k+1)*u.dim], u.data[src:src+u.dim])
		}
		rows, err := encodeDeltaRows(enc, buf, n, u.dim)
		if err != nil {
			return err
		}
		if _, err := call(MethodStagePut, encodeMsg(&StagePut{
			Txn: version, TableID: int32(u.tableID), PartIndex: int32(u.partIndex),
			RowStart: u.localRows[i], Rows: rows,
		})); err != nil {
			return err
		}
		ev.RowsSent += n
		ev.Bytes += int64(len(rows))
		i = j
	}
	return nil
}
