// Package exec implements the architectural instruction-set simulator: a
// paged data memory, a register file, single-instruction semantics, and
// checkpoint/rollback so the timing model can execute speculatively (wrong
// path included) and recover on mispredictions and promoted-branch faults.
package exec

// pageWords is the number of 8-byte words per memory page.
const pageWords = 512

// pageShift converts a word index to a page number.
const pageShift = 9 // log2(pageWords)

// Memory is a sparse, paged, word-granular data memory. Addresses are byte
// addresses; accesses are 8-byte words and are aligned down to 8 bytes.
// Reads of unmapped memory return zero without allocating. A one-entry
// page cache short-circuits the map lookup for consecutive accesses to the
// same page — the common case in the simulator's load/store stream.
type Memory struct {
	pages    map[uint64]*[pageWords]int64
	lastPage uint64
	lastPtr  *[pageWords]int64
	// owned lists every page this memory has allocated, in allocation
	// order; the first used of them are mapped. reset unmaps them all,
	// and later writes to unmapped pages take them back, cleared, before
	// allocating.
	owned []*[pageWords]int64
	used  int
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageWords]int64)}
}

// reset empties the memory to what NewMemory returns, keeping its pages
// for later writes to reuse.
func (m *Memory) reset() {
	clear(m.pages)
	m.lastPage, m.lastPtr = 0, nil
	m.used = 0
}

func split(addr uint64) (page, offset uint64) {
	w := addr >> 3 // word index
	return w >> pageShift, w & (pageWords - 1)
}

// Read returns the word at addr (aligned down to 8 bytes).
//
//tc:hotpath
func (m *Memory) Read(addr uint64) int64 {
	pg, off := split(addr)
	if m.lastPtr != nil && m.lastPage == pg {
		return m.lastPtr[off]
	}
	p := m.pages[pg]
	if p == nil {
		return 0
	}
	m.lastPage, m.lastPtr = pg, p
	return p[off]
}

// Write stores v at addr (aligned down to 8 bytes).
//
//tc:hotpath
func (m *Memory) Write(addr uint64, v int64) {
	pg, off := split(addr)
	if m.lastPtr != nil && m.lastPage == pg {
		m.lastPtr[off] = v
		return
	}
	p := m.pages[pg]
	if p == nil {
		if v == 0 {
			return // writing zero to unmapped memory is a no-op
		}
		p = m.newPage()
		m.pages[pg] = p
	}
	m.lastPage, m.lastPtr = pg, p
	p[off] = v
}

// newPage returns a zeroed page: the next one reset unmapped, or a new
// one.
func (m *Memory) newPage() *[pageWords]int64 {
	if m.used == len(m.owned) {
		m.owned = append(m.owned, new([pageWords]int64))
	} else {
		clear(m.owned[m.used][:])
	}
	m.used++
	return m.owned[m.used-1]
}

// Pages returns the number of allocated pages (for footprint diagnostics).
func (m *Memory) Pages() int { return len(m.pages) }
