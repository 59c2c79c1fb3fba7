package sharding

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Tiered-storage capacity planning: the paper's scale-out is
// capacity-driven (tables are sharded because they do not fit one node),
// so the planner's real currency is resident bytes, not row counts. A
// TierPlan assigns each table a cold-tier precision — fp32, fp16, or
// row-wise int8 — chosen by trading the table's quantization error
// budget against the bytes the cheaper encoding saves, and the plan
// reporting here surfaces the resulting per-shard resident footprints so
// placement decisions and rebalance reports speak in bytes.

// Precision names a cold-tier storage encoding.
type Precision string

// Supported cold-tier precisions, cheapest-bytes last.
const (
	PrecisionFP32 Precision = "fp32"
	PrecisionFP16 Precision = "fp16"
	PrecisionInt8 Precision = "int8"
)

// ParsePrecision validates a precision name (the drmserve flag value).
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case PrecisionFP32, PrecisionFP16, PrecisionInt8:
		return Precision(s), nil
	}
	return "", fmt.Errorf("sharding: unknown precision %q (want fp32, fp16, or int8)", s)
}

// Estimated worst-case reconstruction error of each encoding, as a
// fraction of the table's value scale. Int8 row-wise linear quantization
// of values in [-s, s] has step 2s/255, so half-step error s/255; fp16
// error is relative, ≤ 2^-11 of the magnitude.
const (
	int8RelError = 1.0 / 255
	fp16RelError = 1.0 / 2048
)

// TierOptions tune the capacity planner.
type TierOptions struct {
	// ColdPrecision caps how aggressive the planner may quantize
	// (PrecisionInt8 allows everything, PrecisionFP16 rules int8 out,
	// PrecisionFP32 disables cold-tier compression).
	ColdPrecision Precision
	// ErrorBudget is the maximum acceptable worst-case reconstruction
	// error as a fraction of the table's value scale; encodings whose
	// estimated error exceeds it are demoted to the next-safer precision.
	// 0 defaults to 1/250 — just above the int8 bound, so int8 is
	// admissible by default and a slightly tighter budget forces fp16.
	ErrorBudget float64
}

// minTableBytes keeps tables below this fp32 size at fp32: the decode
// cost of a tiny table buys back almost no bytes.
const minTableBytes = 16 << 10

func (o TierOptions) withDefaults() TierOptions {
	if o.ColdPrecision == "" {
		o.ColdPrecision = PrecisionFP32
	}
	if o.ErrorBudget <= 0 {
		o.ErrorBudget = 1.0 / 250
	}
	return o
}

// TierPlan maps each table to its cold-tier precision. A nil plan (or a
// table absent from it) means fp32.
type TierPlan struct {
	Precisions map[int]Precision
}

// Precision returns the planned precision for a table.
func (tp *TierPlan) Precision(id int) Precision {
	if tp == nil {
		return PrecisionFP32
	}
	if p, ok := tp.Precisions[id]; ok {
		return p
	}
	return PrecisionFP32
}

// PlanTiers assigns each table the cheapest precision the error budget
// (and the requested precision cap) admits. Deterministic for a fixed
// (cfg, opts).
func PlanTiers(cfg *model.Config, opts TierOptions) *TierPlan {
	opts = opts.withDefaults()
	tp := &TierPlan{Precisions: make(map[int]Precision, len(cfg.Tables))}
	for _, t := range cfg.Tables {
		tp.Precisions[t.ID] = pickPrecision(t, opts)
	}
	return tp
}

// pickPrecision chooses one table's encoding: candidates ordered by
// resident bytes ascending, first one whose estimated error fits.
func pickPrecision(t model.TableSpec, opts TierOptions) Precision {
	if opts.ColdPrecision == PrecisionFP32 || t.Bytes() < minTableBytes {
		return PrecisionFP32
	}
	type cand struct {
		p   Precision
		err float64
	}
	cands := []cand{{PrecisionInt8, int8RelError}, {PrecisionFP16, fp16RelError}}
	if opts.ColdPrecision == PrecisionFP16 {
		cands = cands[1:]
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return TierTableBytes(t, cands[i].p) < TierTableBytes(t, cands[j].p)
	})
	for _, c := range cands {
		if c.err <= opts.ErrorBudget && TierTableBytes(t, c.p) < t.Bytes() {
			return c.p
		}
	}
	return PrecisionFP32
}

// TierTableBytes returns a table's resident cold-tier bytes under a
// precision: fp32 rows×dim×4, fp16 rows×dim×2, int8 rows×(dim + 4 bytes
// of fp16 scale/bias header).
func TierTableBytes(t model.TableSpec, p Precision) int64 {
	rows, dim := int64(t.Rows), int64(t.Dim)
	switch p {
	case PrecisionFP16:
		return rows * dim * 2
	case PrecisionInt8:
		return rows * (dim + 4)
	default:
		return rows * dim * 4
	}
}

// ShardResidentBytes returns the cold-tier bytes an assignment holds
// under the tier plan, with partitioned tables contributing
// proportionally — the byte-aware sibling of ShardCapacityBytes.
func (tp *TierPlan) ShardResidentBytes(cfg *model.Config, a *Assignment) int64 {
	var n int64
	for u := range a.Units() {
		n += TierTableBytes(cfg.Tables[u.TableID], tp.Precision(u.TableID)) / int64(u.NumParts)
	}
	return n
}

// ResidentBytes sums planned cold-tier bytes across all tables.
func (tp *TierPlan) ResidentBytes(cfg *model.Config) int64 {
	var n int64
	for _, t := range cfg.Tables {
		n += TierTableBytes(t, tp.Precision(t.ID))
	}
	return n
}

// CountByPrecision tallies tables per precision (for reports).
func (tp *TierPlan) CountByPrecision(cfg *model.Config) map[Precision]int {
	out := make(map[Precision]int)
	for _, t := range cfg.Tables {
		out[tp.Precision(t.ID)]++
	}
	return out
}

// TieredReport renders per-shard resident-byte footprints for a plan
// under a tier plan, against the fp32 baseline — what a capacity-driven
// deployment actually provisions for.
func TieredReport(cfg *model.Config, p *Plan, tp *TierPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resident bytes for %s under %s (fp32 MiB -> tiered MiB)\n", cfg.Name, p.Name())
	if !p.IsDistributed() {
		fmt.Fprintf(&b, "  singular: %.2f -> %.2f\n",
			float64(cfg.SparseBytes())/(1<<20), float64(tp.ResidentBytes(cfg))/(1<<20))
		return b.String()
	}
	var fp32Total, tierTotal int64
	for i := range p.Shards {
		a := &p.Shards[i]
		f, t := ShardCapacityBytes(cfg, a), tp.ShardResidentBytes(cfg, a)
		fp32Total += f
		tierTotal += t
		fmt.Fprintf(&b, "  shard %d: %.2f -> %.2f\n", a.Shard, float64(f)/(1<<20), float64(t)/(1<<20))
	}
	if fp32Total > 0 {
		fmt.Fprintf(&b, "  total: %.2f -> %.2f (%.0f%% reduction)\n",
			float64(fp32Total)/(1<<20), float64(tierTotal)/(1<<20),
			100*(1-float64(tierTotal)/float64(fp32Total)))
	}
	return b.String()
}
