// Package isa defines the synthetic SPARC-like instruction set executed
// by the simulator: instruction classes and their execution latencies,
// the architectural register state that must be saved and restored on
// mode transitions, and the result fingerprinting used by Reunion's
// Check stage.
//
// The simulator is trace-driven rather than semantics-driven: what
// matters for the paper's evaluation is each instruction's timing
// behaviour (class, dependences, memory address, privilege level), not
// the values it computes. Values appear only where correctness is
// checked — fingerprints hash the (possibly fault-corrupted) results so
// that redundant execution can detect divergence.
package isa

// Class is the timing class of an instruction.
type Class uint8

const (
	// ALU is a single-cycle integer operation.
	ALU Class = iota
	// Mul is a multi-cycle multiply.
	Mul
	// Div is a long-latency divide.
	Div
	// FP is a floating-point operation.
	FP
	// Branch is a conditional or unconditional control transfer.
	Branch
	// Load reads memory.
	Load
	// Store writes memory. Under sequential consistency a store holds
	// its instruction-window entry until the write-through completes.
	Store
	// Serializing is an instruction that cannot execute out of order:
	// all older instructions must commit before it executes and no
	// younger instruction may fetch until it completes (the paper's
	// SIs: privileged register reads/writes, membars, etc.).
	Serializing
	// TrapEnter transfers control to privileged software (system call,
	// page fault, interrupt). In a single-OS mixed-mode system this
	// triggers an Enter-DMR mode transition.
	TrapEnter
	// TrapReturn returns from privileged software to user code,
	// triggering a Leave-DMR transition in a single-OS system.
	TrapReturn
	// Nop does nothing.
	Nop
)

// String returns the mnemonic of the class.
func (c Class) String() string {
	switch c {
	case ALU:
		return "alu"
	case Mul:
		return "mul"
	case Div:
		return "div"
	case FP:
		return "fp"
	case Branch:
		return "br"
	case Load:
		return "ld"
	case Store:
		return "st"
	case Serializing:
		return "si"
	case TrapEnter:
		return "trap"
	case TrapReturn:
		return "rett"
	case Nop:
		return "nop"
	default:
		return "?"
	}
}

// Latency returns the execution latency of the class, in cycles, not
// counting memory hierarchy time for loads and stores.
func (c Class) Latency() uint64 {
	switch c {
	case ALU, Branch, Nop, TrapEnter, TrapReturn:
		return 1
	case Mul:
		return 3
	case Div:
		return 12
	case FP:
		return 4
	case Load, Store:
		return 1 // address generation; memory time is added separately
	case Serializing:
		return 6 // privileged state access
	default:
		return 1
	}
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// Inst is one dynamic instruction in a thread's stream.
type Inst struct {
	Seq   uint64 // dynamic sequence number within the thread
	PC    uint64 // virtual program-counter address
	Class Class
	VA    uint64 // virtual data address (loads/stores)
	Dep   uint8  // distance (in dynamic instructions) to the producer; 0 = none
	Priv  bool   // executes in privileged (OS/VMM) mode
	Taken bool   // branch outcome (branches)
	Misp  bool   // branch mispredicted (branches)
	// Result is the value the instruction produces. The trace
	// generator fills in a deterministic pseudo-value; fault injection
	// flips bits in it to model computation errors.
	Result uint64
}

// Fingerprint hashes the architecturally visible outputs of the
// instruction — results, branch targets, store addresses and values —
// in the style of Smolens' fingerprinting. Two fault-free cores
// executing the same instruction produce identical fingerprints; any
// single-bit corruption of an output yields a different hash with high
// probability.
func (in *Inst) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, in.Seq)
	h = fnvMix(h, in.PC)
	h = fnvMix(h, uint64(in.Class))
	h = fnvMix(h, in.VA)
	h = fnvMix(h, in.Result)
	if in.Taken {
		h = fnvMix(h, 1)
	}
	return h
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
