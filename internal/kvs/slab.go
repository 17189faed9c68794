package kvs

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// This file is the per-partition record arena behind the table in
// seqlock.go. Every entry is one record of 64-bit words in a chunk that
// holds no pointers, so the GC never scans it and an entry owns no heap
// object:
//
//	word 0    header: flags (bits 0-31) | value length (32-55) | key length (56-63)
//	word 1    expiry in virtual nanoseconds, 0 = never
//	word 2..  the key, little-endian and zero-padded to a word, then the value
//
// Records come in numClasses fixed sizes spaced about 1.25x apart. A
// record is freed onto its class's list and only ever reused as a record
// of that class, so a header read at any record position — live, freed
// or recycled — describes a record that fits there. Chunks are never
// released while the partition lives. All of it is writer-owned except
// dir, which readers load to find a record.

const (
	recHeader   = 2 // header and expiry words
	maxKeyLen   = 1<<8 - 1
	maxValueLen = 1<<24 - 1
	numClasses  = 64

	// A new chunk is as large as all before it, from 4 KiB up to 1 MiB; a
	// record larger than that gets a chunk of its own size.
	minChunkWords = 1 << 9
	maxChunkWords = 1 << 17
)

// classWords[c] is the size in words of a class-c record: 2 to 8, then
// each class about 1.25x the one before it, up to the largest record.
var classWords = func() (w [numClasses]int) {
	w[0] = recHeader
	for c := 1; c < numClasses; c++ {
		w[c] = max(w[c-1]+1, w[c-1]*5/4)
	}
	return w
}()

// classOf returns the smallest class holding an n-word record.
func classOf(n int) int {
	c := 0
	for classWords[c] < n {
		c++
	}
	return c
}

// recordWords is the size of a record holding klen key and vlen value
// bytes.
func recordWords(klen, vlen int) int { return recHeader + (klen+7)>>3 + (vlen+7)>>3 }

func header(flags uint32, klen, vlen int) uint64 {
	return uint64(flags) | uint64(vlen)<<32 | uint64(klen)<<56
}

// lengths decodes a header's key and value lengths.
func lengths(h uint64) (klen, vlen int) { return int(h >> 56), int(h >> 32 & maxValueLen) }

type chunk = []atomic.Uint64

// arena holds a partition's records. A ref names a record: chunk index
// << 32 | word offset.
type arena struct {
	dir     atomic.Pointer[[]chunk] // published before any ref into a new chunk
	free    [numClasses]uint64      // per-class free-list heads, ref+1 (0 = empty), linked through word 1
	end     int                     // next unused word of the last chunk
	words   int                     // words in all chunks
	records int                     // records ever carved
}

// rec returns the words from ref to the end of its chunk: a reader's
// bounds for a record whose header it has not validated.
func (a *arena) rec(ref uint64) []atomic.Uint64 {
	return (*a.dir.Load())[ref>>32][uint32(ref):]
}

// alloc returns a class-c record: the head of c's free list, else words
// carved from the last chunk, opening a new one when they do not fit.
func (a *arena) alloc(c int) uint64 {
	if h := a.free[c]; h != 0 {
		a.free[c] = a.rec(h - 1)[1].Load()
		return h - 1
	}
	var dir []chunk
	if d := a.dir.Load(); d != nil {
		dir = *d
	}
	n := classWords[c]
	if len(dir) == 0 || a.end+n > len(dir[len(dir)-1]) {
		size := max(min(max(a.words, minChunkWords), maxChunkWords), n)
		grown := append(dir, make(chunk, size))
		a.dir.Store(&grown)
		dir, a.end = grown, 0
		a.words += size
	}
	ref := uint64(len(dir)-1)<<32 | uint64(a.end)
	a.end += n
	a.records++
	return ref
}

// release puts a record no slot references any more on its class's free
// list. Its header is left as it was: readers still holding the ref must
// find lengths that fit.
func (a *arena) release(ref uint64) {
	r := a.rec(ref)
	c := classOf(recordWords(lengths(r[0].Load())))
	r[1].Store(a.free[c])
	a.free[c] = ref + 1
}

// checkSizes refuses what a header cannot describe.
func checkSizes(key, value []byte) {
	if len(key) > maxKeyLen || len(value) > maxValueLen {
		panic(fmt.Sprintf("kvs: %d-byte key or %d-byte value exceeds the %d/%d-byte record limits",
			len(key), len(value), maxKeyLen, maxValueLen))
	}
}

// put writes a whole record: header, expiry, key and value.
func put(r []atomic.Uint64, key []byte, e Entry) {
	r[0].Store(header(e.Flags, len(key), len(e.Value)))
	r[1].Store(uint64(e.Expires))
	storeWords(r[recHeader:], key)
	storeWords(r[recHeader+(len(key)+7)>>3:], e.Value)
}

// storeWords packs b into w (little-endian, zero-padded tail) with atomic
// stores, so a concurrent reader's word loads are synchronized; the
// writer's seq bracket is what makes the copy appear whole.
func storeWords(w []atomic.Uint64, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w[i>>3].Store(binary.LittleEndian.Uint64(b[i:]))
	}
	if i < len(b) {
		w[i>>3].Store(tailWord(b[i:]))
	}
}

// tailWord packs the last, short word of b, byte by byte: a copy into a
// word-sized buffer is a memmove call, which the GET path feels.
func tailWord(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// keyIs reports whether the packed key words w spell key (whose length
// the caller has matched against the header).
func keyIs(w []atomic.Uint64, key []byte) bool {
	i := 0
	for ; i+8 <= len(key); i += 8 {
		if w[i>>3].Load() != binary.LittleEndian.Uint64(key[i:]) {
			return false
		}
	}
	return i == len(key) || w[i>>3].Load() == tailWord(key[i:])
}

// appendWords appends the first n bytes packed in w to dst, a whole word
// at a time.
func appendWords(dst []byte, w []atomic.Uint64, n int) []byte {
	base := len(dst)
	var tmp [8]byte
	for i := 0; i < (n+7)>>3; i++ {
		binary.LittleEndian.PutUint64(tmp[:], w[i].Load())
		dst = append(dst, tmp[:]...)
	}
	return dst[:base+n]
}
