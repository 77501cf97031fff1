package isa

import (
	"testing"
	"testing/quick"
)

func TestClassLatencies(t *testing.T) {
	if ALU.Latency() != 1 || Div.Latency() <= Mul.Latency() {
		t.Fatal("unexpected latency ordering")
	}
	for c := ALU; c <= Nop; c++ {
		if c.Latency() == 0 {
			t.Fatalf("class %v has zero latency", c)
		}
		if c.String() == "?" {
			t.Fatalf("class %d has no mnemonic", c)
		}
	}
}

func TestIsMem(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Fatal("loads and stores access memory")
	}
	if ALU.IsMem() || Branch.IsMem() || Serializing.IsMem() {
		t.Fatal("non-memory class reports IsMem")
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	in := Inst{Seq: 5, PC: 0x1000, Class: Store, VA: 0xdead0, Result: 42, Taken: true}
	cp := in
	if in.Fingerprint() != cp.Fingerprint() {
		t.Fatal("identical instructions must fingerprint identically")
	}
}

// TestFingerprintSensitivity is the property Reunion's detection relies
// on: flipping any single bit of an instruction's architecturally
// visible outputs changes the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	err := quick.Check(func(seq, pc, va, result uint64, bit uint8) bool {
		in := Inst{Seq: seq, PC: pc, Class: ALU, VA: va, Result: result}
		base := in.Fingerprint()
		in.Result ^= 1 << (bit % 64)
		return in.Fingerprint() != base
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintAddressSensitivity(t *testing.T) {
	err := quick.Check(func(va uint64, bit uint8) bool {
		in := Inst{Seq: 1, PC: 4, Class: Store, VA: va, Result: 7}
		base := in.Fingerprint()
		in.VA ^= 1 << (bit % 64)
		return in.Fingerprint() != base
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegFileSize(t *testing.T) {
	var r RegFile
	if r.Bytes() < 2048 || r.Bytes() > 4096 {
		t.Fatalf("architectural state should be ~2.3KB, got %d bytes", r.Bytes())
	}
}

func TestRegFileCopyIsDeep(t *testing.T) {
	var a RegFile
	a.GPR[5] = 9
	b := a // the scratchpad save: a plain value copy
	b.GPR[5] = 1
	if a.GPR[5] != 9 {
		t.Fatal("a copy aliases the original")
	}
	if !a.Equal(&a) {
		t.Fatal("Equal self")
	}
	if a.Equal(&b) {
		t.Fatal("Equal after divergence")
	}
}
