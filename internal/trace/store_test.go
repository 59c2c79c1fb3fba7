package trace

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

var testEpoch = time.Now()

// testSpan derives every field of a span from its id, so a reader can
// tell an intact span from a torn or misfiled one.
func testSpan(id uint64) Span {
	return Span{
		TraceID: id, CallID: id * 3, Layer: Layer(id % 7),
		Kind: [...]string{"", "Dense", "Sparse"}[id%3], Net: fmt.Sprint("net", id%5), Name: fmt.Sprint("op", id%11),
		Start: testEpoch.Add(time.Duration(id) * time.Microsecond), Dur: time.Duration(id),
	}
}

// sameSpan compares field for field; Start by instant, since a stored
// start is rebuilt from the recorder's epoch.
func sameSpan(got, want Span, shard string) bool {
	sameStart := got.Start.Equal(want.Start)
	got.Start, want.Start, want.Shard = time.Time{}, time.Time{}, shard
	return got == want && sameStart
}

func TestSpanRoundTrip(t *testing.T) {
	for _, skew := range []time.Duration{0, time.Hour, -90 * time.Second} {
		r := NewRecorder("sparse2", 64)
		r.SetClockSkew(skew)
		var want []Span
		for l := LayerRequest; l <= LayerMigration; l++ {
			s := Span{TraceID: uint64(l) + 1, CallID: uint64(l) * 9, Layer: l, Start: r.Now(), Dur: time.Duration(l) * time.Millisecond}
			if l%2 == 0 {
				s.Kind, s.Net, s.Name = "Dense", "net1", fmt.Sprint("fc", l)
			}
			want = append(want, s)
		}
		want = append(want,
			Span{TraceID: 90, Name: "no start"},
			Span{TraceID: 91, Name: "wall clock only", Start: time.Unix(1_700_000_000, 5)},
			Span{TraceID: 92, Name: otherName, Dur: -time.Second},
		)
		for _, s := range want {
			r.Record(s)
		}
		got := r.AppendSpans(make([]Span, 1))[1:]
		if len(got) != len(want) {
			t.Fatalf("skew %v: %d spans back, want %d", skew, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if !g.Start.Equal(w.Start) || g.Start.IsZero() != w.Start.IsZero() {
				t.Errorf("skew %v span %d: Start %v, want %v", skew, i, g.Start, w.Start)
			}
			// The monotonic reading survives: differences between
			// returned spans are the originals', to the nanosecond.
			if i <= int(LayerMigration) && g.Start.Sub(got[0].Start) != w.Start.Sub(want[0].Start) {
				t.Errorf("skew %v span %d: offset %v, want %v", skew, i, g.Start.Sub(got[0].Start), w.Start.Sub(want[0].Start))
			}
			g.Start, w.Start, w.Shard = time.Time{}, time.Time{}, "sparse2"
			if g != w {
				t.Errorf("skew %v span %d: got %+v, want %+v", skew, i, g, w)
			}
		}
	}
}

// A reader may run beside writers: it sees only whole spans and never an
// id the table it holds cannot name. Run under -race in CI.
func TestSpansBesideWriters(t *testing.T) {
	const writers, each = 4, 2 * chunkSpans
	r := NewRecorder("s", writers*each)
	var wg sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// New names keep arriving while the reader holds a table.
				s := testSpan(uint64(g*each + i + 1))
				s.Name = fmt.Sprint("op", i/64)
				r.Record(s)
			}
		}(g)
	}
	go func() { wg.Wait(); done.Store(true) }()
	var buf []Span
	for last := false; !last; {
		last = done.Load()
		buf = r.AppendSpans(buf[:0])
		if len(buf) > r.Len() {
			t.Fatalf("%d spans from a recorder holding %d", len(buf), r.Len())
		}
		for _, s := range buf {
			want := testSpan(s.TraceID)
			want.Name = s.Name
			if s.TraceID == 0 || s.Name == "" || !sameSpan(s, want, "s") {
				t.Fatalf("torn span %+v", s)
			}
		}
	}
	if len(buf) != writers*each {
		t.Fatalf("quiescent read returned %d of %d", len(buf), writers*each)
	}
}

// No caller can grow the name table: past the cap a new name is
// recorded as "(other)", and a name is cloned, not kept.
func TestNameTableIsCapped(t *testing.T) {
	const n = 70_000
	r := NewRecorder("s", n+1)
	big := make([]byte, 1<<20)
	copy(big, "view-of-a-large-buffer")
	view := unsafe.String(&big[0], 22)
	r.Record(Span{Name: view})
	for i := 0; i < n; i++ {
		r.Record(Span{Name: fmt.Sprint("name-", i), Kind: "Dense"})
	}
	if got := len(r.names.Load().strs); got != maxNames {
		t.Fatalf("name table holds %d, want the cap %d", got, maxNames)
	}
	spans := r.Spans()
	if spans[0].Name != view || unsafe.StringData(spans[0].Name) == unsafe.StringData(view) {
		t.Errorf("first name %q: want a clone of the caller's bytes", spans[0].Name)
	}
	kept := maxNames - 4 // "", "(other)", the view, "Dense"
	for i, s := range spans[1:] {
		want := fmt.Sprint("name-", i)
		if i >= kept {
			want = otherName
		}
		if s.Name != want || s.Kind != "Dense" {
			t.Fatalf("span %d named %q kind %q, want %q", i, s.Name, s.Kind, want)
		}
	}
}

func TestResetKeepsChunks(t *testing.T) {
	const n = 2*chunkSpans + 7
	r := NewRecorder("s", n)
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = testSpan(uint64(i + 1))
	}
	fill := func() {
		for _, s := range spans {
			r.Record(s)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(3, func() { r.Reset(); fill() }); allocs != 0 {
		t.Errorf("Reset then refill allocated %v times", allocs)
	}
	// A rewound recorder holds only what was recorded since.
	r.Reset()
	if r.Len() != 0 || len(r.Spans()) != 0 {
		t.Fatalf("after Reset: Len %d, %d spans", r.Len(), len(r.Spans()))
	}
	r.Record(testSpan(500))
	if spans := r.Spans(); len(spans) != 1 || !sameSpan(spans[0], testSpan(500), "s") {
		t.Errorf("after Reset and one Record: %+v", spans)
	}
}

// A chunk holds what is left of the capacity: the 1-span recorder of a
// serving role stores 40 bytes, not a 4 096-record chunk, and a capacity
// that ends mid-chunk ends its last chunk there.
func TestLastChunkIsSizedToCapacity(t *testing.T) {
	for _, capacity := range []int{1, 7, chunkSpans, chunkSpans + 5} {
		r := NewRecorder("s", capacity)
		for i := 0; i < capacity+3; i++ {
			r.Record(testSpan(uint64(i + 1)))
		}
		if r.Len() != capacity || r.Drops() != 3 {
			t.Fatalf("capacity %d: kept %d, dropped %d", capacity, r.Len(), r.Drops())
		}
		stored := 0
		for i := range r.chunks {
			stored += len(*r.chunks[i].Load())
		}
		if stored != capacity {
			t.Errorf("capacity %d: %d records allocated", capacity, stored)
		}
		if spans := r.Spans(); len(spans) != capacity || !sameSpan(spans[capacity-1], testSpan(uint64(capacity)), "s") {
			t.Errorf("capacity %d: read back %d spans", capacity, len(spans))
		}
	}
}

// The collector skips what it need not scan: a chunk is noscan only
// while the record holds nothing pointer-shaped.
func TestSpanRecordHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf((*record)(nil)).Elem()
	if typ.Size() > 48 {
		t.Errorf("record is %d bytes, want at most 48", typ.Size())
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the record must hold no pointer", path, typ.Kind())
		}
	}
	walk("record", typ)
}
