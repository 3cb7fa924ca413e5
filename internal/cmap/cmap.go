// Package cmap implements the connectivity map of §VI: a key-value store
// mapping a data-vertex ID to a bitset of embedding depths it is connected
// to. Two implementations are provided:
//
//   - HashMap: the paper's hardware design — a banked, simplified
//     linear-probing hash table whose deletions just invalidate entries
//     (correct because GPM updates it in a bulk, stack-disciplined fashion,
//     §VI-A) with occupancy-based overflow signaling (§VI-B);
//   - Vector: the |V|-sized software c-map of prior work [15, 21], which
//     backs the simulator's unlimited c-map and serves as a test oracle.
package cmap

import (
	"fmt"

	"repro/internal/graph"
)

// Bits is the connectivity bitset: bit d set means "connected to the vertex
// at embedding depth d". The paper's hardware uses one byte; we widen to 16
// to allow patterns past 10 vertices in software experiments.
type Bits uint16

// Stats counts c-map activity for the evaluation (read ratios in §VII-C,
// overflow rates).
type Stats struct {
	Lookups   int64 // queries
	Hits      int64 // queries that found the key
	Inserts   int64 // entries inserted or updated
	Removes   int64 // entries removed or downgraded
	Probes    int64 // hardware probe steps (bank-parallel groups)
	Overflows int64 // bulk insertions rejected by the occupancy estimate
}

// Add accumulates another stats block into s (per-worker / per-PE merge).
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Inserts += o.Inserts
	s.Removes += o.Removes
	s.Probes += o.Probes
	s.Overflows += o.Overflows
}

// ReadRatio returns reads / (reads + writes), the metric of §VII-C.
func (s Stats) ReadRatio() float64 {
	total := s.Lookups + s.Inserts + s.Removes
	if total == 0 {
		return 0
	}
	return float64(s.Lookups) / float64(total)
}

// Map is the interface shared by the hardware model and the vector oracle.
type Map interface {
	// TryInsertLevel bulk-inserts neighbor list adj at depth, keeping only
	// IDs < bound (NoBound disables filtering). It reports false — without
	// inserting anything — when the occupancy estimate predicts overflow
	// (§VI-B fallback).
	//
	//flexlint:noalloc
	TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool
	// RemoveLevel undoes TryInsertLevel for the same arguments (stack
	// discipline: depths are removed in reverse insertion order).
	//
	//flexlint:noalloc
	RemoveLevel(adj []graph.VID, depth int, bound graph.VID)
	// Lookup returns the connectivity bitset for key (zero if absent).
	//
	//flexlint:noalloc
	Lookup(key graph.VID) Bits
	// Reset invalidates all entries (end of a task).
	Reset()
	// Stats returns accumulated counters.
	Stats() Stats
}

// NoBound disables the insertion ID filter.
const NoBound = ^graph.VID(0)

// EntryBytes is the storage cost per entry in the paper's design: 4-byte key
// plus 1-byte value.
const EntryBytes = 5

// HashMap is the hardware c-map: linear probing over a fixed array of
// entries, partitioned into banks probed in parallel (m successive entries
// per cycle). Deletion invalidates in place; see §VI-A for why that is
// correct under bulk stack-disciplined updates.
type HashMap struct {
	keys []graph.VID
	vals []Bits

	banks     int
	threshold float64 // max occupancy fraction before overflow is signaled
	occupied  int
	stats     Stats
}

// NewHashMap builds a hardware c-map with the given entry capacity and bank
// count. The paper's prototype is 2K entries (4 banks × 512 lines × 5 B);
// occupancy is kept below 75%.
func NewHashMap(entries, banks int) *HashMap {
	if entries <= 0 || banks <= 0 {
		panic(fmt.Sprintf("cmap: bad geometry entries=%d banks=%d", entries, banks))
	}
	return &HashMap{
		keys:      make([]graph.VID, entries),
		vals:      make([]Bits, entries),
		banks:     banks,
		threshold: 0.75,
	}
}

// NewHashMapBytes sizes the c-map from a byte budget at EntryBytes per entry
// — the way the paper quotes sizes (1 kB … 16 kB scratchpads, Fig 14).
func NewHashMapBytes(bytes, banks int) *HashMap {
	entries := bytes / EntryBytes
	if entries < 1 {
		entries = 1
	}
	return NewHashMap(entries, banks)
}

// Capacity returns the entry count.
func (m *HashMap) Capacity() int { return len(m.keys) }

// Occupancy returns the live-entry count.
func (m *HashMap) Occupancy() int { return m.occupied }

//flexlint:noalloc
func (m *HashMap) hash(key graph.VID) int {
	// Multiplicative hashing (Knuth); cheap in hardware, good spread.
	h := uint64(key) * 0x9e3779b97f4a7c15
	return int(h % uint64(len(m.keys)))
}

// probe walks the table from key's home slot. It returns the slot holding
// key, or the first invalid slot, or -1 when the table wrapped around full.
// The probe-step count charged to stats models the banked hardware: each
// cycle examines `banks` successive entries.
//
//flexlint:noalloc
func (m *HashMap) probe(key graph.VID) int {
	n := len(m.keys)
	start := m.hash(key)
	steps := 0
	for i := 0; i < n; i++ {
		slot := (start + i) % n
		if i%m.banks == 0 {
			steps++
		}
		if m.vals[slot] == 0 || m.keys[slot] == key {
			m.stats.Probes += int64(steps)
			return slot
		}
	}
	m.stats.Probes += int64(steps)
	return -1
}

// TryInsertLevel implements Map. The footprint estimate is the paper's: the
// degree (after the compiler's ID-bound filter) is known before the list is
// fetched, so the PE can predict overflow and fall back to SIU/SDU without
// touching the map.
//
//flexlint:noalloc
func (m *HashMap) TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool {
	filtered := boundedPrefix(adj, bound)
	if float64(m.occupied+len(filtered)) > m.threshold*float64(len(m.keys)) {
		m.stats.Overflows++
		return false
	}
	bit := Bits(1) << uint(depth)
	for i, w := range filtered {
		slot := m.probe(w)
		if slot < 0 {
			// Estimation said it fits but the table is full (can only
			// happen with threshold ≥ 1 in stress tests): undo exactly
			// the keys inserted so far.
			m.removeKeys(filtered[:i], bit)
			m.stats.Overflows++
			return false
		}
		if m.vals[slot] == 0 {
			m.keys[slot] = w
			m.occupied++
		}
		m.vals[slot] |= bit
		m.stats.Inserts++
	}
	return true
}

// RemoveLevel implements Map: clear this depth's bit on every inserted key
// and invalidate entries whose value drops to zero.
//
//flexlint:noalloc
func (m *HashMap) RemoveLevel(adj []graph.VID, depth int, bound graph.VID) {
	m.removeKeys(boundedPrefix(adj, bound), Bits(1)<<uint(depth))
}

//flexlint:noalloc
func (m *HashMap) removeKeys(keys []graph.VID, bit Bits) {
	for _, w := range keys {
		slot := m.findForDelete(w)
		if slot < 0 || m.vals[slot]&bit == 0 {
			continue
		}
		m.vals[slot] &^= bit
		m.stats.Removes++
		if m.vals[slot] == 0 {
			m.occupied--
		}
	}
}

// findForDelete probes for an existing key. Unlike Lookup it continues past
// invalidated slots: a bulk removal invalidates entries whose probe chains
// interleave, so holes opened earlier in the same bulk must be skipped
// (§VI-A — "we never delete a key that does not exist in the map, thus the
// deletion operation will always find the entry").
//
//flexlint:noalloc
func (m *HashMap) findForDelete(key graph.VID) int {
	n := len(m.keys)
	start := m.hash(key)
	steps := 0
	for i := 0; i < n; i++ {
		slot := (start + i) % n
		if i%m.banks == 0 {
			steps++
		}
		if m.vals[slot] != 0 && m.keys[slot] == key {
			m.stats.Probes += int64(steps)
			return slot
		}
	}
	m.stats.Probes += int64(steps)
	return -1
}

// findExisting is the lookup probe: it terminates at the first invalid slot.
// Remaining probe chains stay intact across stack-disciplined bulk removals
// (later-inserted entries are always removed first), so lookups never need
// to skip holes.
//
//flexlint:noalloc
func (m *HashMap) findExisting(key graph.VID) int {
	n := len(m.keys)
	start := m.hash(key)
	steps := 0
	for i := 0; i < n; i++ {
		slot := (start + i) % n
		if i%m.banks == 0 {
			steps++
		}
		if m.vals[slot] != 0 && m.keys[slot] == key {
			m.stats.Probes += int64(steps)
			return slot
		}
		if m.vals[slot] == 0 {
			m.stats.Probes += int64(steps)
			return -1
		}
	}
	m.stats.Probes += int64(steps)
	return -1
}

// Lookup implements Map.
//
//flexlint:noalloc
func (m *HashMap) Lookup(key graph.VID) Bits {
	m.stats.Lookups++
	slot := m.findExisting(key)
	if slot < 0 {
		return 0
	}
	m.stats.Hits++
	return m.vals[slot]
}

// Reset implements Map ("when a task is completed, all entries in c-map are
// invalidated").
func (m *HashMap) Reset() {
	for i := range m.vals {
		m.vals[i] = 0
	}
	m.occupied = 0
}

// Stats implements Map.
func (m *HashMap) Stats() Stats { return m.stats }

// Vector is the dense software c-map of prior work: one byte per graph
// vertex. Constant-time accesses, but |V| space per worker and poor cache
// behavior (§VI) — the motivation for the hardware hash map.
type Vector struct {
	vals  []Bits
	stats Stats
}

// NewVector builds a vector c-map for an n-vertex graph.
func NewVector(n int) *Vector { return &Vector{vals: make([]Bits, n)} }

// TryInsertLevel implements Map; the vector never overflows.
//
//flexlint:noalloc
func (v *Vector) TryInsertLevel(adj []graph.VID, depth int, bound graph.VID) bool {
	bit := Bits(1) << uint(depth)
	for _, w := range boundedPrefix(adj, bound) {
		v.vals[w] |= bit
		v.stats.Inserts++
	}
	return true
}

// RemoveLevel implements Map.
//
//flexlint:noalloc
func (v *Vector) RemoveLevel(adj []graph.VID, depth int, bound graph.VID) {
	bit := Bits(1) << uint(depth)
	for _, w := range boundedPrefix(adj, bound) {
		v.vals[w] &^= bit
		v.stats.Removes++
	}
}

// Lookup implements Map.
//
//flexlint:noalloc
func (v *Vector) Lookup(key graph.VID) Bits {
	v.stats.Lookups++
	b := v.vals[key]
	if b != 0 {
		v.stats.Hits++
	}
	return b
}

// Reset implements Map.
func (v *Vector) Reset() {
	for i := range v.vals {
		v.vals[i] = 0
	}
}

// Stats implements Map.
func (v *Vector) Stats() Stats { return v.stats }

// boundedPrefix returns the prefix of the ascending-sorted list with IDs
// strictly below bound.
//
//flexlint:noalloc
func boundedPrefix(adj []graph.VID, bound graph.VID) []graph.VID {
	if bound == NoBound {
		return adj
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return adj[:lo]
}
