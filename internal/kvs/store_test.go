package kvs

import (
	"testing"
	"time"

	"incod/internal/memcache"
	"incod/internal/simnet"
)

// Memcached store semantics, on one partition of the one store (the
// multi-partition forms are in sharded_test.go and seqlock_test.go).

func TestStoreBasics(t *testing.T) {
	s := NewShardedStore(1, 0)
	s.Set("k", Entry{Flags: 1, Value: []byte("v")})
	e, ok := s.GetString("k", 0)
	if !ok || string(e.Value) != "v" || e.Flags != 1 {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if !s.Delete("k") {
		t.Error("Delete should succeed")
	}
	if _, ok := s.GetString("k", 0); ok {
		t.Error("deleted key still present")
	}
	if s.Delete("k") {
		t.Error("Delete of absent key should report false")
	}
}

func TestStoreExpiry(t *testing.T) {
	s := NewShardedStore(1, 0)
	s.Set("k", Entry{Value: []byte("v"), Expires: int64(simnet.Time(5 * time.Second))})
	if _, ok := s.GetString("k", simnet.Time(time.Second)); !ok {
		t.Error("entry should be live before expiry")
	}
	if _, ok := s.GetString("k", simnet.Time(6*time.Second)); ok {
		t.Error("entry should expire")
	}
	// A lock-free reader cannot remove what it saw expired: the entry is
	// charged once and stays counted until a write removes it.
	s.GetString("k", simnet.Time(7*time.Second))
	if s.Len() != 1 || s.Stats().Expirations != 1 {
		t.Errorf("Len=%d Expirations=%d, want 1 and 1", s.Len(), s.Stats().Expirations)
	}
}

func TestStoreApply(t *testing.T) {
	s := NewShardedStore(1, 0)
	resp := s.Apply(memcache.Request{Op: memcache.OpSet, Key: "a", Flags: 2, Value: []byte("x")}, 0)
	if resp.Status != memcache.StatusStored {
		t.Fatalf("set -> %+v", resp)
	}
	resp = s.Apply(memcache.Request{Op: memcache.OpGet, Key: "a"}, 0)
	if !resp.Hit || string(resp.Value) != "x" || resp.Flags != 2 {
		t.Fatalf("get -> %+v", resp)
	}
	resp = s.Apply(memcache.Request{Op: memcache.OpGet, Key: "nope"}, 0)
	if resp.Hit || resp.Status != memcache.StatusEnd {
		t.Fatalf("get miss -> %+v", resp)
	}
	resp = s.Apply(memcache.Request{Op: memcache.OpDelete, Key: "a"}, 0)
	if resp.Status != memcache.StatusDeleted {
		t.Fatalf("delete -> %+v", resp)
	}
	resp = s.Apply(memcache.Request{Op: memcache.OpDelete, Key: "a"}, 0)
	if resp.Status != memcache.StatusNotFound {
		t.Fatalf("delete absent -> %+v", resp)
	}
	resp = s.Apply(memcache.Request{Op: memcache.Op(42), Key: "a"}, 0)
	if resp.Status != memcache.StatusError {
		t.Fatalf("unknown op -> %+v", resp)
	}
}

func TestStoreApplyExptime(t *testing.T) {
	s := NewShardedStore(1, 0)
	now := simnet.Time(10 * time.Second)
	s.Apply(memcache.Request{Op: memcache.OpSet, Key: "a", Exptime: 5, Value: []byte("x")}, now)
	if _, ok := s.GetString("a", now.Add(4*time.Second)); !ok {
		t.Error("entry should live for 5 virtual seconds")
	}
	if _, ok := s.GetString("a", now.Add(6*time.Second)); ok {
		t.Error("entry should have expired")
	}
}

func TestStoreHitRatio(t *testing.T) {
	s := NewShardedStore(1, 0)
	if st := s.Stats(); st.Gets != 0 || st.Hits != 0 {
		t.Errorf("empty store counted %d hits of %d gets", st.Hits, st.Gets)
	}
	s.Set("a", Entry{})
	s.GetString("a", 0)
	s.GetString("b", 0)
	if st := s.Stats(); st.Gets != 2 || st.Hits != 1 {
		t.Errorf("counted %d hits of %d gets, want 1 of 2", st.Hits, st.Gets)
	}
}
