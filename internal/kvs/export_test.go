package kvs

// The tests' reads of a store's size and lifetime counters.

// StoreStats is a snapshot of a store's lifetime counters.
type StoreStats struct {
	Gets, Hits, Sets, Deletes, Evictions, Expirations uint64
}

// Len returns the number of live entries across all partitions. Entries
// that readers have observed expired remain counted until a write
// overwrites, deletes or evicts them (lock-free readers cannot remove
// entries).
func (st *ShardedStore) Len() int {
	n := 0
	for _, p := range st.parts {
		n += p.len()
	}
	return n
}

// Stats merges every partition's counters.
func (st *ShardedStore) Stats() StoreStats {
	var out StoreStats
	for _, p := range st.parts {
		out.Add(p.statsSnapshot())
	}
	return out
}

// Add accumulates o into s.
func (s *StoreStats) Add(o StoreStats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.Sets += o.Sets
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
}

func (p *partition) len() int {
	p.mu.Lock()
	n := p.live
	p.mu.Unlock()
	return n
}

func (p *partition) statsSnapshot() StoreStats {
	return StoreStats{
		Gets:        p.stats.gets.Load(),
		Hits:        p.stats.hits.Load(),
		Sets:        p.stats.sets.Load(),
		Deletes:     p.stats.deletes.Load(),
		Evictions:   p.stats.evictions.Load(),
		Expirations: p.stats.expirations.Load(),
	}
}
