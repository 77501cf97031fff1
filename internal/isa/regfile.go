package isa

// Architectural register state sizes. SPARC V9 with register windows
// carries roughly 2.3 KB of architectural state per virtual CPU (the
// figure the paper uses when bounding the dirty scratchpad footprint of
// a mode switch); we model that as general-purpose windows plus a
// privileged register file.
const (
	// NumGPR is the number of general-purpose registers including
	// windowed registers (8 windows x 16 + 32 visible).
	NumGPR = 160
	// NumFPR is the number of floating-point registers.
	NumFPR = 64
	// NumPriv is the number of privileged registers (trap state,
	// condition codes, ASIs, timers, MMU context, ...).
	NumPriv = 64
)

// RegFile is the full architectural register state of one VCPU.
// It is the unit that the mode-transition state machine saves to and
// restores from the scratchpad space. Entering DMR mode compares its
// privileged registers (Priv) with the copy saved when the VCPU left
// DMR mode, to catch corruption that occurred while it ran
// unprotected.
type RegFile struct {
	GPR  [NumGPR]uint64
	FPR  [NumFPR]uint64
	Priv [NumPriv]uint64
	PC   uint64
	NPC  uint64
}

// Bytes returns the architectural state size in bytes (~2.3 KB).
func (r *RegFile) Bytes() int {
	return 8 * (NumGPR + NumFPR + NumPriv + 2)
}

// Equal reports whether all architectural state matches.
func (r *RegFile) Equal(o *RegFile) bool {
	return r.GPR == o.GPR && r.FPR == o.FPR && r.Priv == o.Priv &&
		r.PC == o.PC && r.NPC == o.NPC
}
