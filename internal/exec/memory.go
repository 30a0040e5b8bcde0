// Package exec implements the architectural instruction-set simulator: a
// paged data memory, a register file, single-instruction semantics, and
// checkpoint/rollback so the timing model can execute speculatively (wrong
// path included) and recover on mispredictions and promoted-branch faults.
package exec

import "tracecache/internal/program"

// page is one page of memory, in the program image's page format.
type page = [program.PageWords]int64

// Memory is a sparse, paged, word-granular data memory. Addresses are byte
// addresses; accesses are 8-byte words and are aligned down to 8 bytes.
// Reads of unmapped memory return zero without allocating. A one-entry
// page cache short-circuits the map lookup for consecutive accesses to the
// same page — the common case in the simulator's load/store stream.
type Memory struct {
	pages    map[uint64]*page
	lastPage uint64
	lastPtr  *page
	// owned lists every page this memory has allocated, in allocation
	// order; the first used of them are mapped. load unmaps them all, and
	// mapping a page, for the image or for a write to unmapped memory,
	// takes the next unmapped one before allocating.
	owned []*page
	used  int
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// load empties the memory and maps a copy of each page of a program's
// data image, reusing the pages the memory owns.
func (m *Memory) load(image []program.Page) {
	clear(m.pages)
	m.lastPage, m.lastPtr = 0, nil
	m.used = 0
	for i := range image {
		*m.mapPage(image[i].Num) = image[i].Words
	}
}

func split(addr uint64) (pg, off uint64) {
	w := addr >> 3 // word index
	return w >> program.PageShift, w & (program.PageWords - 1)
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
		p = m.mapPage(pg)
		clear(p[:])
	}
	m.lastPage, m.lastPtr = pg, p
	p[off] = v
}

// mapPage maps page number pg to the next page load unmapped, or to a
// new one, and returns it as it is: the caller fills it.
func (m *Memory) mapPage(pg uint64) *page {
	if m.used == len(m.owned) {
		m.owned = append(m.owned, new(page))
	}
	p := m.owned[m.used]
	m.used++
	m.pages[pg] = p
	return p
}

// Pages returns the number of allocated pages (for footprint diagnostics).
func (m *Memory) Pages() int { return len(m.pages) }
