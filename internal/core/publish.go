package core

import (
	"fmt"
	"slices"
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
// scores. It takes rowsPer rows (default 16) from each of cfg's tables
// named in tables (nil = every table); each version samples a different
// contiguous row window, wrapping at the table's end. The rows are drawn
// by cfg.TableValues, as every build of the tables draws them, so they
// equal the served rows with no table at hand — while no delta that
// changes a row has been committed, as in drmserve's publish loop.
func IdentityDelta(cfg *model.Config, tables []int, version uint64, rowsPer int) *DeltaSet {
	ds := &DeltaSet{Version: version}
	if rowsPer <= 0 {
		rowsPer = 16
	}
	if tables == nil {
		for id := range cfg.Tables {
			tables = append(tables, id)
		}
	}
	for _, id := range tables {
		ts := cfg.Tables[id]
		n := min(rowsPer, ts.Rows)
		start := int(version * 2654435761 % uint64(ts.Rows))
		rows := make([]int32, n)
		data := make([]float32, n*ts.Dim)
		for k := range rows {
			r := (start + k) % ts.Rows
			rows[k] = int32(r)
			cfg.TableValues(data[k*ts.Dim:(k+1)*ts.Dim], id, r*ts.Dim)
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
	sharding.PartRef
	localRows []int32 // sorted local row indices
	srcRows   []int32 // delta payload row offsets, aligned with localRows
	dim       int
	data      []float32 // the delta's full payload
}

// planUnitsFor maps each table delta onto the plan's placement units,
// returning per-shard work lists. A logical row goes to its part's local
// row by embedding.RowPart, so a row outside the table would match no
// part, or a wrong one, and is refused here, before any shard is called.
func planUnitsFor(plan *sharding.Plan, cfg *model.Config, deltas []TableDelta) (map[int][]*deltaUnit, error) {
	if len(deltas) == 0 {
		return nil, nil // a dense-only delta set routes nothing
	}
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: publish: singular plans hold no sparse shards")
	}
	placed := make(map[int]bool)
	for si := range plan.Shards {
		for u := range plan.Shards[si].Units() {
			placed[u.TableID] = true
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
		if !placed[d.TableID] {
			return nil, fmt.Errorf("core: publish: table %d is not placed by the current plan", d.TableID)
		}
		for _, r := range d.Rows {
			if n := cfg.Tables[d.TableID].Rows; r < 0 || int(r) >= n {
				return nil, fmt.Errorf("core: publish: table %d row %d outside its %d rows", d.TableID, r, n)
			}
		}
		for si := range plan.Shards {
			a := &plan.Shards[si]
			for pr := range a.Units() {
				if pr.TableID != d.TableID {
					continue
				}
				u := &deltaUnit{PartRef: pr, dim: len(d.Data) / len(d.Rows), data: d.Data}
				for i, r := range d.Rows {
					if part, local := embedding.RowPart(int(r), pr.NumParts); part == pr.PartIndex {
						u.localRows = append(u.localRows, int32(local))
						u.srcRows = append(u.srcRows, int32(i))
					}
				}
				if len(u.localRows) == 0 {
					continue
				}
				sort.Sort(byLocalRow{u})
				out[a.Shard] = append(out[a.Shard], u)
			}
		}
	}
	for _, units := range out {
		slices.SortFunc(units, func(a, b *deltaUnit) int { return a.Key().Compare(b.Key()) })
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

// encodeDeltaRows encodes a run of fp32 rows in an encoding's wire form,
// through the encoders a shard image's sections are encoded with
// (encodeSection): row-wise codecs are independent per row, so a
// republished row is bit-identical to the same row in a full export.
func encodeDeltaRows(enc int32, vals []float32, n, dim int) []byte {
	var rows rowStore = &embedding.Dense{RowsN: n, DimN: dim, Data: vals}
	switch enc {
	case TierEncFP16:
		rows = quant.EncodeFP16Rows(vals, n, dim)
	case TierEncInt8:
		rows = quant.QuantizeRows(vals, n, dim, quant.Bits8)
	}
	return rows.AppendRowRange(nil, 0, n)
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
	byShard, err := planUnitsFor(p.Engine.Plan(), p.Engine.Config(), ds.Tables)
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
		shape, ok := findShape(held, u.Key())
		if !ok {
			return nil, fmt.Errorf("core: publish: %s does not hold table %d part %d", ep.Service, u.TableID, u.PartIndex)
		}
		if int(shape.Dim) != u.dim {
			return nil, fmt.Errorf("core: publish: table %d part %d dim %d at %s, delta has %d",
				u.TableID, u.PartIndex, shape.Dim, ep.Service, u.dim)
		}
		if last := u.localRows[len(u.localRows)-1]; last >= shape.Rows {
			return nil, fmt.Errorf("core: publish: table %d part %d row %d outside %d rows at %s",
				u.TableID, u.PartIndex, last, shape.Rows, ep.Service)
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
		rows := encodeDeltaRows(enc, buf, n, u.dim)
		if _, err := call(MethodStagePut, encodeMsg(&StagePut{
			Txn: version, TableID: int32(u.TableID), PartIndex: int32(u.PartIndex),
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
