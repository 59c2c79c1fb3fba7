package trace

import (
	"maps"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// The span store: what a Recorder keeps of each Span. A record is five
// words and holds no pointer — the strings are ids into the recorder's
// name table, Start is a duration from the recorder's epoch — so the
// collector never scans a chunk, and chunks are allocated as the cursor
// first reaches them: a recorder costs what was recorded into it.

// chunkSpans is the records per chunk (160 KiB). A recorder's last chunk
// holds only what is left of its capacity, so one sized for a single span
// — a serving role's, which keeps spans for its sink alone — allocates 40
// bytes of store, not a chunk.
const chunkSpans = 4096

// record is one stored span. The four plain words are written first and
// meta is stored last, atomically: a reader that loads a meta of the
// current lap may read the rest, and one that does not skips the slot.
type record struct {
	traceID uint64
	callID  uint64
	start   int64 // Start.Sub(epoch): monotonic when both readings have one
	dur     int64
	meta    atomic.Uint64 // lap:20 | layer:8 | kind:12 | net:12 | name:12
}

type chunk []record

// Name ids are 12 bits: maxNames bounds the name table, so no caller can
// grow a recorder through the strings it passes. Id 0 is the empty
// string; past the cap every new name is recorded as otherName. What is
// left of meta above the layer is the lap: 20 bits, where a recorder is
// rewound a few thousand times at most.
const (
	idBits     = 12
	idMask     = 1<<idBits - 1
	maxNames   = 1 << idBits
	otherID    = 1
	otherName  = "(other)"
	layerShift = 3 * idBits
	layerMask  = 0xff
	lapShift   = layerShift + 8
)

// nameTable is one immutable version of a recorder's interned strings.
type nameTable struct {
	ids  map[string]uint64
	strs []string // id → name
}

// noNames is every recorder's first table; versions are replaced, never
// written, so sharing it is safe.
var noNames = &nameTable{ids: map[string]uint64{otherName: otherID}, strs: []string{"", otherName}}

// intern returns the id of s, cloning s into the table on first sight.
// A hit takes no lock.
func (r *Recorder) intern(s string) uint64 {
	if s == "" {
		return 0
	}
	if id, ok := r.names.Load().ids[s]; ok {
		return id
	}
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	old := r.names.Load()
	if id, ok := old.ids[s]; ok {
		return id
	}
	id := uint64(len(old.strs))
	if id == maxNames {
		return otherID
	}
	// The clone drops whatever larger buffer s was a view of. The name
	// set closes after the first request, so copying the table per new
	// name is paid a few dozen times per recorder.
	s = strings.Clone(s)
	next := &nameTable{ids: maps.Clone(old.ids), strs: append(old.strs[:id:id], s)}
	next.ids[s] = id
	r.names.Store(next)
	return id
}

// put stores s in slot idx, installing the slot's chunk if this is the
// first touch of it.
func (r *Recorder) put(idx int64, s *Span) {
	slot := &r.chunks[idx/chunkSpans]
	c := slot.Load()
	if c == nil {
		fresh := make(chunk, min(chunkSpans, r.capacity-idx/chunkSpans*chunkSpans))
		if c = &fresh; !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	rec := &(*c)[idx%chunkSpans]
	rec.traceID, rec.callID = s.TraceID, s.CallID
	// A zero Start saturates to MinInt64, which AppendSpans reads back
	// as zero.
	rec.start, rec.dur = int64(s.Start.Sub(r.epoch)), int64(s.Dur)
	rec.meta.Store(r.lap.Load()<<lapShift | uint64(s.Layer)&layerMask<<layerShift |
		r.intern(s.Kind)<<(2*idBits) | r.intern(s.Net)<<idBits | r.intern(s.Name))
}

// AppendSpans appends the recorded spans to dst and returns it. It may
// run beside Record: a span whose Record has not returned may be missing.
func (r *Recorder) AppendSpans(dst []Span) []Span {
	n, lap := r.Len(), r.lap.Load()
	strs := r.names.Load().strs
	name := func(id uint64) string {
		if id >= uint64(len(strs)) {
			// Interned after strs was loaded, and before the meta that
			// carries it was stored: the current table has it.
			strs = r.names.Load().strs
		}
		return strs[id]
	}
	for base := 0; base < n; base += chunkSpans {
		c := r.chunks[base/chunkSpans].Load()
		if c == nil {
			continue // reserved, not yet installed
		}
		for i := range (*c)[:min(chunkSpans, n-base)] {
			rec := &(*c)[i]
			m := rec.meta.Load()
			if m>>lapShift != lap {
				continue // reserved, not yet written
			}
			s := Span{
				TraceID: rec.traceID, CallID: rec.callID, Shard: r.shard,
				Layer: Layer(m >> layerShift & layerMask),
				Kind:  name(m >> (2 * idBits) & idMask), Net: name(m >> idBits & idMask), Name: name(m & idMask),
				Dur: time.Duration(rec.dur),
			}
			if rec.start != math.MinInt64 {
				s.Start = r.epoch.Add(time.Duration(rec.start))
			}
			dst = append(dst, s)
		}
	}
	return dst
}
