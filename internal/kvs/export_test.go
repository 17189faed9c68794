package kvs

// The tests' reads of a store's size and hit count.

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

// Hits sums every partition's GET hits.
func (st *ShardedStore) Hits() uint64 {
	n := uint64(0)
	for _, p := range st.parts {
		n += p.stats.hits.Load()
	}
	return n
}

func (p *partition) len() int {
	p.mu.Lock()
	n := p.live
	p.mu.Unlock()
	return n
}
