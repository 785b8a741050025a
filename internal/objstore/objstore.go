// Package objstore implements the object-store storage service behind the
// File Multiplexer's mechanism 7.
//
// The service has object-store semantics, deliberately narrower than the
// POSIX-shaped gridftp file service: objects are written as a whole with an
// immutable, atomic PUT (the object appears — complete — only when the
// upload commits), read with ranged GETs, and enumerated with prefix LISTs.
// There is no partial overwrite; replacing an object means PUTting a
// complete new body under the same key. These are the semantics of S3-style
// cloud storage, and the divergences from POSIX are pinned in the FM's
// conformance suite (see DESIGN.md §12).
//
// As with the other services, the protocol is framed binary messages over
// any net.Conn, so the same code runs on simnet in experiments and TCP in
// cmd/objstored.
package objstore

import (
	"bytes"
	"sort"
	"sync"
)

// Meta describes one stored object.
type Meta struct {
	Key  string
	Size int64
}

// Body collects an object body that arrives in pieces — an upload's data
// frames at the server, an application's writes at the FM. The first piece
// gets a chunk of exactly its size and Bytes hands a single chunk over as it
// is, so a body that arrives whole (any object up to one data frame) is
// allocated and copied once; later chunks hold at least streamChunk bytes, so
// a longer body is copied once on the way in and once more by Bytes, however
// small the pieces.
type Body struct{ chunks [][]byte }

func (b *Body) Write(p []byte) (int, error) {
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1])+len(p) > cap(b.chunks[n-1]) {
		size := len(p)
		if n > 0 {
			size = max(size, streamChunk)
		}
		b.chunks = append(b.chunks, make([]byte, 0, size))
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], p...)
	return len(p), nil
}

// Bytes reports what was written as one slice, the caller's to keep; the
// Body must not be written to afterwards.
func (b *Body) Bytes() []byte {
	if len(b.chunks) == 1 {
		return b.chunks[0]
	}
	return bytes.Join(b.chunks, nil)
}

// Store is the in-memory object table one server exports. An object's bytes
// are immutable once committed; Put replaces the whole value atomically.
// Store is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewStore returns an empty Store.
func NewStore() *Store {
	return &Store{objects: make(map[string][]byte)}
}

// Put commits data under key, replacing any previous object. The caller
// must not modify data afterwards (the store takes ownership); the server's
// upload path always hands over a private buffer.
func (s *Store) Put(key string, data []byte) {
	s.mu.Lock()
	s.objects[key] = data
	s.mu.Unlock()
}

// PutBytes commits a private copy of data under key. Tests and seeding use
// it so the caller keeps ownership of its slice.
func (s *Store) PutBytes(key string, data []byte) {
	s.Put(key, append([]byte(nil), data...))
}

// Get reports the committed bytes of key. The returned slice is the
// store's — treat it as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.objects[key]
	return b, ok
}

// Stat reports whether key exists and its size.
func (s *Store) Stat(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.objects[key]
	return int64(len(b)), ok
}

// List reports the objects whose keys start with prefix, sorted by key.
func (s *Store) List(prefix string) []Meta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Meta
	for k, v := range s.objects {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, Meta{Key: k, Size: int64(len(v))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len reports the number of committed objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}
