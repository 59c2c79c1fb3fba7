// Package l exercises the lockdiscipline analyzer: registry re-entry
// from snapshot probes, canonical mutex ordering (ctrlMu before
// replicaMu), and re-entrant acquisition.
package l

import "sync"

// Registry mimics the obs registry surface the analyzer recognizes.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*int64
	probes   []func() int64
}

// Counter acquires the registry lock.
func (r *Registry) Counter(name string) *int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(int64)
		r.counters[name] = c
	}
	return c
}

// RegisterProbe registers a pull-style gauge.
func (r *Registry) RegisterProbe(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes = append(r.probes, fn)
}

// RegisterProbeGroup registers a multi-gauge source.
func (r *Registry) RegisterProbeGroup(fn func(emit func(string, int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
}

// Cluster is the control-plane-plus-replicas shape from cluster: ctrlMu
// is acquired before replicaMu by convention; mu guards the table set.
type Cluster struct {
	mu        sync.RWMutex
	ctrlMu    sync.Mutex
	replicaMu sync.Mutex
	tables    map[int]string
	n         int64
}

// goodProbes resolves its handle at registration time and reads only
// shard state inside the probe. Not flagged.
func goodProbes(r *Registry, s *Cluster) {
	h := r.Counter("boot")
	r.RegisterProbe("shard.tables", func() int64 {
		*h = 1
		s.mu.RLock()
		defer s.mu.RUnlock()
		return int64(len(s.tables))
	})
}

// badProbe creates a handle inside the probe: registry lock re-entry.
func badProbe(r *Registry, s *Cluster) {
	r.RegisterProbe("shard.n", func() int64 {
		c := r.Counter("lazy") // want `snapshot probe reaches Registry.Counter`
		_ = c
		return s.n
	})
}

// badProbeGroup reaches the registry through a helper.
func badProbeGroup(r *Registry, s *Cluster) {
	r.RegisterProbeGroup(func(emit func(string, int64)) {
		emit("n", lazyCount(r))
	})
}

// lazyCount is the helper a probe calls into.
func lazyCount(r *Registry) int64 {
	return *r.Counter("lazy") // want `snapshot probe reaches Registry.Counter`
}

// canonicalOrder takes ctrlMu, then replicaMu. Not flagged.
func (s *Cluster) canonicalOrder() {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	s.replicaMu.Lock()
	s.tables[0] = "x"
	s.replicaMu.Unlock()
}

// invertedOrder acquires ctrlMu while holding replicaMu.
func (s *Cluster) invertedOrder() {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	s.ctrlMu.Lock() // want `acquiring s.ctrlMu while holding s.replicaMu inverts the canonical lock order`
	s.ctrlMu.Unlock()
}

// sequential holds the locks one after another, never nested. Not
// flagged.
func (s *Cluster) sequential() {
	s.replicaMu.Lock()
	n := len(s.tables)
	s.replicaMu.Unlock()
	s.ctrlMu.Lock()
	s.n = int64(n)
	s.ctrlMu.Unlock()
}

// reentrant re-acquires a held lock.
func (s *Cluster) reentrant() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.mu.RLock() // want `re-entrant acquisition of s.mu`
	s.mu.RUnlock()
}

// drive acquires ctrlMu on its receiver, as a control-plane driver does.
func (s *Cluster) drive() {
	s.ctrlMu.Lock()
	s.n++
	s.ctrlMu.Unlock()
}

// invertedViaCall reaches ctrlMu through a same-receiver call while
// replicaMu is held.
func (s *Cluster) invertedViaCall() {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	s.drive() // want `acquiring s.ctrlMu \(via call to drive\) while holding s.replicaMu`
}

// callAfterUnlock releases replicaMu before the driver call. Not
// flagged.
func (s *Cluster) callAfterUnlock() {
	s.replicaMu.Lock()
	s.tables[1] = "y"
	s.replicaMu.Unlock()
	s.drive()
}

// otherCluster locks a different receiver's ctrlMu: no relation to s's
// locks. Not flagged.
func (s *Cluster) otherCluster(o *Cluster) {
	s.replicaMu.Lock()
	defer s.replicaMu.Unlock()
	o.ctrlMu.Lock()
	o.ctrlMu.Unlock()
}

// branchScoped takes replicaMu only inside a branch; the driver call
// after the branch runs unlocked. Not flagged.
func (s *Cluster) branchScoped(cond bool) {
	if cond {
		s.replicaMu.Lock()
		s.tables[2] = "z"
		s.replicaMu.Unlock()
	}
	s.drive()
}
