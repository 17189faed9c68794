package paxos

// The tests' reads of a leader's sequence and of an acceptor's state.

// Next returns the next unused instance number (what the §9.2 hand-off
// must learn).
func (l *LiveLeader) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Snapshot returns a copy of the acceptor's state, taken under its lock.
func (a *LiveAcceptor) Snapshot() *AcceptorTable {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.table.Load().Clone()
}

// LastVoted returns the highest instance this acceptor has voted on.
func (t *AcceptorTable) LastVoted() uint64 { return t.lastVoted.Load() }

// Accepted returns the value voted for inst, if any. Owner-serialized.
func (t *AcceptorTable) Accepted(inst uint64) ([]byte, bool) {
	var st voteRecord
	if t.lookup(inst, &st); !st.accepted {
		return nil, false
	}
	v, end := voteEnds(st.raw)
	return st.raw[v:end:end], true
}
