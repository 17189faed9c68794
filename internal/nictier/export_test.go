package nictier

import "incod/internal/kvs"

// Len returns the number of entries the tier holds, counted by copying
// them into a scratch store: the tests' read of the table a park or a
// stage must flush.
func (t *KVSTier) Len() int { return kvs.NewShardedStore(1, 0).FillFrom(t.cache) }
