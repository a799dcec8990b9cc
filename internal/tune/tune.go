// Package tune is the persisted tuning store behind the selection
// engine's measured policy: a versioned cache mapping selection points
// — (collective, communicator size, message size, hop class, topology
// fingerprint, noise profile) — to the algorithm whose raced virtual
// time won there.
//
// The store itself knows nothing about collectives or simulation; it
// is a concurrency-safe map with a schema-versioned on-disk form (the
// JSON-lines format documented in TUNING.md), an atomic
// temp-file+rename save, a generation counter bumped on every insert
// (the world pool keys pooled worlds by it) and hit, miss and insert
// counters. spec.Tuner fills it, and deduplicates its own
// measurements; internal/coll consumes lookups through the closure
// fields of coll.Tuning.
//
// Loading is strict: a file whose header, schema version, or any line
// fails validation is rejected as a whole and the caller starts from a
// fresh store — a hostile or stale store file can cost warm-up time,
// never correctness (FuzzTuneStoreLoad pins "rejected, started fresh,
// no panic").
package tune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// FormatName is the format discriminator carried by the store
	// file's header line.
	FormatName = "repro-tune"
	// FormatVersion is the on-disk schema version this package reads
	// and writes. Files carrying any other version are rejected and
	// the store starts fresh.
	FormatVersion = 1
)

// ErrRejected wraps every load failure past "file does not exist":
// corrupt lines, wrong format name, stale schema version, duplicate
// keys. Load still returns a usable fresh store alongside it.
var ErrRejected = errors.New("tune: store file rejected")

// Key identifies one selection point. All fields are plain strings and
// integers so the struct is comparable (it is the map key) and its
// JSON form is stable.
type Key struct {
	// Collective is the collective family name (coll.Collective.String).
	Collective string `json:"collective"`
	// CommSize is the communicator size of the call.
	CommSize int `json:"comm_size"`
	// Bytes is the selection environment's message size (the per-rank
	// block for allgather/alltoall, the total payload otherwise).
	Bytes int `json:"bytes"`
	// Count is the element count of the reducing collectives (0 for
	// the others).
	Count int `json:"count,omitempty"`
	// Hop is the hop-class name the call prices with ("shm", "net", a
	// declared level class).
	Hop string `json:"hop"`
	// TopoFP is the topology fingerprint (sim.Topology.Fingerprint)
	// rendered as 16 hex digits.
	TopoFP string `json:"topo_fp"`
	// Noise is the canonical JSON of the query's noise block, empty
	// for a clean world. Seeds are part of it: a measurement under
	// seed 1 does not answer a what-if under seed 2.
	Noise string `json:"noise,omitempty"`
}

// valid reports whether a key deserialized from disk is structurally
// sound. Unknown collective or hop names are allowed — they simply
// never match a live lookup — but empty or negative fields mean the
// file is damaged.
func (k Key) valid() bool {
	return k.Collective != "" && k.CommSize >= 1 && k.Bytes >= 0 &&
		k.Count >= 0 && k.Hop != "" && k.TopoFP != ""
}

// less orders keys for the deterministic on-disk rendering (Save
// sorts, so save→load→save is byte-stable).
func (k Key) less(o Key) bool {
	if k.Collective != o.Collective {
		return k.Collective < o.Collective
	}
	if k.TopoFP != o.TopoFP {
		return k.TopoFP < o.TopoFP
	}
	if k.CommSize != o.CommSize {
		return k.CommSize < o.CommSize
	}
	if k.Bytes != o.Bytes {
		return k.Bytes < o.Bytes
	}
	if k.Count != o.Count {
		return k.Count < o.Count
	}
	if k.Hop != o.Hop {
		return k.Hop < o.Hop
	}
	return k.Noise < o.Noise
}

// Entry is a measured winner: the algorithm to serve for the key's
// point and the raced virtual times that crowned it.
type Entry struct {
	// Algorithm is the winning registered algorithm name.
	Algorithm string `json:"algorithm"`
	// WinnerPs is the winner's measured virtual time in picoseconds.
	WinnerPs int64 `json:"winner_ps"`
	// RacedPs maps every raced algorithm (winner included) to its
	// measured virtual time — kept for ablations and debugging.
	RacedPs map[string]int64 `json:"raced_ps,omitempty"`
}

// valid mirrors Key.valid for entries read from disk.
func (e Entry) valid() bool {
	if e.Algorithm == "" || e.WinnerPs < 0 {
		return false
	}
	for name, ps := range e.RacedPs {
		if name == "" || ps < 0 {
			return false
		}
	}
	return true
}

// header is the store file's first line.
type header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

// record is one entry line of the store file.
type record struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

// Store is the in-memory tuning cache. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[Key]Entry
	gen     uint64

	hits     atomic.Int64
	misses   atomic.Int64
	measured atomic.Int64
}

// NewStore returns an empty store at generation 0.
func NewStore() *Store {
	return &Store{entries: map[Key]Entry{}}
}

// Load reads a store file. A missing file is not an error: Load
// returns a fresh empty store and a nil error (first boot). Any other
// failure — unreadable file, bad header, stale schema version, corrupt
// or duplicate lines — also returns a usable fresh store, plus an
// error wrapping ErrRejected describing what was wrong ("rejected,
// started fresh"). Load never panics on hostile input.
func Load(path string) (*Store, error) {
	s := NewStore()
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return s, nil
		}
		return s, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	entries, err := decode(data)
	if err != nil {
		return s, fmt.Errorf("%w: %s: %v", ErrRejected, path, err)
	}
	s.entries = entries
	return s, nil
}

// maxLine bounds one store line; a longer line means the file is not
// ours.
const maxLine = 1 << 20

// decode parses the versioned JSON-lines body. Strict: unknown fields,
// duplicate keys, invalid values and trailing garbage all reject the
// whole file.
func decode(data []byte) (map[Key]Entry, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("empty file (missing header)")
	}
	var h header
	if err := strictUnmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("header: %v", err)
	}
	if h.Format != FormatName {
		return nil, fmt.Errorf("format %q, want %q", h.Format, FormatName)
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("schema version %d, want %d", h.Version, FormatVersion)
	}
	entries := map[Key]Entry{}
	line := 1
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			return nil, fmt.Errorf("line %d: blank line", line)
		}
		var r record
		if err := strictUnmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		if !r.Key.valid() || !r.Entry.valid() {
			return nil, fmt.Errorf("line %d: invalid record", line)
		}
		if _, dup := entries[r.Key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key", line)
		}
		entries[r.Key] = r.Entry
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected and
// trailing tokens refused.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// Save atomically rewrites the store file: the rendering is written to
// a temp file in the destination directory and renamed over the path,
// so readers never observe a torn file and the last concurrent writer
// wins with a complete store (the pinned concurrent-writer behavior).
// The rendering is deterministic — header line, then entries in sorted
// key order — so load→save round-trips are byte-stable.
func (s *Store) Save(path string) error {
	body, err := s.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("tune: save: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tune: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tune: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tune: save: %w", err)
	}
	return nil
}

// Encode renders the store's canonical on-disk form (what Save
// writes): the versioned header line followed by one JSON record per
// entry in sorted key order, newline-terminated.
func (s *Store) Encode() ([]byte, error) {
	s.mu.Lock()
	recs := make([]record, 0, len(s.entries))
	for k, e := range s.entries {
		recs = append(recs, record{Key: k, Entry: e})
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key.less(recs[j].Key) })
	var b strings.Builder
	hdr, err := json.Marshal(header{Format: FormatName, Version: FormatVersion})
	if err != nil {
		return nil, err
	}
	b.Write(hdr)
	b.WriteByte('\n')
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// Lookup returns the cached winner for a key and counts the hit or
// miss.
func (s *Store) Lookup(k Key) (Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[k]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return e, ok
}

// Has reports whether a winner is cached for a key, without counting a
// hit or miss.
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	_, ok := s.entries[k]
	s.mu.Unlock()
	return ok
}

// Put records a measured winner, bumps the generation and the
// measurement counter.
func (s *Store) Put(k Key, e Entry) {
	s.mu.Lock()
	s.entries[k] = e
	s.gen++
	s.mu.Unlock()
	s.measured.Add(1)
}

// Len returns the number of cached points.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Generation returns the store's insert counter. It increases on every
// Put; the world pool includes it in its shape key so pooled worlds
// built against an older snapshot are not reused after the store
// learned something new.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Stats is a consistent snapshot of the store's counters for /metrics.
type Stats struct {
	// Entries is the number of cached points.
	Entries int
	// Generation is the insert counter.
	Generation uint64
	// Hits and Misses count Lookup outcomes (across Store and every
	// Snapshot).
	Hits, Misses int64
	// Measured counts winners recorded by Put.
	Measured int64
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n, gen := len(s.entries), s.gen
	s.mu.Unlock()
	return Stats{
		Entries:    n,
		Generation: gen,
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Measured:   s.measured.Load(),
	}
}

// Each calls fn for every cached point in sorted key order (the Save
// order). It operates on a copy, so fn may call back into the store.
func (s *Store) Each(fn func(Key, Entry)) {
	s.mu.Lock()
	recs := make([]record, 0, len(s.entries))
	for k, e := range s.entries {
		recs = append(recs, record{Key: k, Entry: e})
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key.less(recs[j].Key) })
	for _, r := range recs {
		fn(r.Key, r.Entry)
	}
}

// Snapshot is an immutable view of the store's entries at one
// generation. A Run resolves every selection through one snapshot so
// its picks cannot shift mid-run while the background tuner learns;
// hit/miss counts still flow to the parent store.
type Snapshot struct {
	entries map[Key]Entry
	gen     uint64
	hits    *atomic.Int64
	misses  *atomic.Int64
}

// Snapshot captures the current entries and generation.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	m := make(map[Key]Entry, len(s.entries))
	for k, e := range s.entries {
		m[k] = e
	}
	gen := s.gen
	s.mu.Unlock()
	return &Snapshot{entries: m, gen: gen, hits: &s.hits, misses: &s.misses}
}

// Lookup returns the snapshot's cached winner for a key, counting the
// hit or miss on the parent store.
func (sn *Snapshot) Lookup(k Key) (Entry, bool) {
	e, ok := sn.entries[k]
	if ok {
		sn.hits.Add(1)
	} else {
		sn.misses.Add(1)
	}
	return e, ok
}

// Generation returns the generation the snapshot was taken at.
func (sn *Snapshot) Generation() uint64 { return sn.gen }
