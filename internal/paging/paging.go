// Package paging models the virtual-memory substrate the MMM design
// depends on: per-guest address spaces with 8 KB pages, a
// hardware-filled TLB (as the paper assumes, to avoid over-inflating
// serializing-instruction counts), and the physical-memory ownership
// map that the system software encodes into the Protection Assistance
// Table.
package paging

import "fmt"

// Domain identifies who owns a physical page. The PAT distinguishes
// only "reliable-only" from "accessible in performance mode", but the
// simulator tracks the precise owner so that fault-injection tests can
// verify that no performance-mode store ever lands on another
// component's memory.
type Domain uint8

const (
	// DomainSystem is the VMM/hypervisor (or the OS in a single-OS
	// system): always reliable-only.
	DomainSystem Domain = iota
	// DomainReliable is a guest (or application) that requires DMR.
	DomainReliable
	// DomainPerformance is a guest (or application) that runs in
	// high-performance (non-DMR) mode.
	DomainPerformance
	// DomainScratchpad is the reserved physical region used by the
	// mode-transition state machine to stage VCPU state.
	DomainScratchpad
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case DomainSystem:
		return "system"
	case DomainReliable:
		return "reliable"
	case DomainPerformance:
		return "performance"
	case DomainScratchpad:
		return "scratchpad"
	default:
		return "?"
	}
}

// PhysMap records, for every physical page, which domain owns it. The
// system software derives the PAT from this map: a page is marked
// reliable-only unless it is owned by a performance domain.
//
// Physical memory is handed out by a bump allocator, so the map stores
// one entry per allocated page only: a chip allocates a few thousand of
// the hundreds of thousands of pages of its memory. Every page at or
// past Allocated() is free, owned by DomainSystem with no guest.
type PhysMap struct {
	pageShift uint
	pages     uint64   // pages of physical memory
	owner     []Domain // per allocated page
	guest     []int32  // guest id per allocated page, -1 if none
}

// NewPhysMap creates an ownership map covering memBytes of physical
// memory with the given page size.
func NewPhysMap(memBytes uint64, pageBytes int) *PhysMap {
	shift := uint(0)
	for 1<<shift != pageBytes {
		shift++
		if shift > 30 {
			panic("paging: page size is not a power of two")
		}
	}
	return &PhysMap{pageShift: shift, pages: memBytes >> shift}
}

// PageShift returns log2(page size).
func (m *PhysMap) PageShift() uint { return m.pageShift }

// Pages returns the number of physical pages.
func (m *PhysMap) Pages() uint64 { return m.pages }

// Allocated returns the bump allocator's high-water mark: every page at
// or above it is free (and therefore reliable-only). PAT construction
// uses it to avoid inspecting the millions of untouched pages of a
// mostly empty physical memory.
func (m *PhysMap) Allocated() uint64 { return uint64(len(m.owner)) }

// Alloc reserves n physical pages for the given domain and guest,
// returning the first physical page number. Allocation is a
// deterministic bump pointer so traces are reproducible.
func (m *PhysMap) Alloc(n uint64, d Domain, guest int) uint64 {
	first := m.Allocated()
	if first+n > m.pages {
		panic(fmt.Sprintf("paging: out of physical memory (%d pages requested, %d free)",
			n, m.pages-first))
	}
	for i := uint64(0); i < n; i++ {
		m.owner = append(m.owner, d)
		m.guest = append(m.guest, int32(guest))
	}
	return first
}

// Owner returns the owning domain of a physical page.
func (m *PhysMap) Owner(ppage uint64) Domain {
	if ppage < m.Allocated() {
		return m.owner[ppage]
	}
	m.checkPage(ppage)
	return DomainSystem
}

// Guest returns the guest id owning a physical page, or -1.
func (m *PhysMap) Guest(ppage uint64) int {
	if ppage < m.Allocated() {
		return int(m.guest[ppage])
	}
	m.checkPage(ppage)
	return -1
}

// checkPage panics for a page past the end of physical memory.
func (m *PhysMap) checkPage(ppage uint64) {
	if ppage >= m.pages {
		panic(fmt.Sprintf("paging: physical page %d past the %d pages of memory", ppage, m.pages))
	}
}

// OwnerOfAddr returns the owning domain of a physical address.
func (m *PhysMap) OwnerOfAddr(pa uint64) Domain {
	return m.Owner(pa >> m.pageShift)
}

// ReliableOnly reports whether the PAT bit for this physical page
// should be 1: the page may only be written by software executing in
// reliable mode.
func (m *PhysMap) ReliableOnly(ppage uint64) bool {
	return m.Owner(ppage) != DomainPerformance
}
