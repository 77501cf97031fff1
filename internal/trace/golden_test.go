package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// goldenSeeds and goldenInsts size TestStreamMatchesGolden: every
// workload preset at each seed, digested over its first goldenInsts
// instructions.
var goldenSeeds = []uint64{1, 11, 42}

const goldenInsts = 100_000

// streamDigest hashes every field of the first n instructions of g, in
// stream order, then the generator's phase counters.
func streamDigest(g *Gen, n int) string {
	h := sha256.New()
	var buf [36]byte
	for i := 0; i < n; i++ {
		in := g.Next()
		binary.LittleEndian.PutUint64(buf[0:], in.Seq)
		binary.LittleEndian.PutUint64(buf[8:], in.PC)
		binary.LittleEndian.PutUint64(buf[16:], in.VA)
		binary.LittleEndian.PutUint64(buf[24:], in.Result)
		buf[32] = byte(in.Class)
		buf[33] = in.Dep
		buf[34] = flags(in)
		buf[35] = 0
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[0:], g.UserInsts)
	binary.LittleEndian.PutUint64(buf[8:], g.OSInsts)
	binary.LittleEndian.PutUint64(buf[16:], g.Traps)
	h.Write(buf[:24])
	return hex.EncodeToString(h.Sum(nil))
}

func flags(in isa.Inst) byte {
	var f byte
	if in.Priv {
		f |= 1
	}
	if in.Taken {
		f |= 2
	}
	if in.Misp {
		f |= 4
	}
	return f
}

// TestStreamMatchesGolden pins the generator's output byte for byte:
// every workload preset at three seeds, every instruction field over
// the first 100k instructions. TestGenDeterminism compares two
// generators built the same way, so it cannot see a change to how the
// reuse rings are filled or read; this digest can. Regenerate only for
// a documented change to the synthetic workloads:
// go test ./internal/trace -run StreamMatchesGolden -update
func TestStreamMatchesGolden(t *testing.T) {
	got := map[string]string{}
	for _, p := range workload.All() {
		for _, seed := range goldenSeeds {
			got[fmt.Sprintf("%s/%d", p.Name, seed)] = streamDigest(New(p, seed), goldenInsts)
		}
	}
	path := filepath.Join("testdata", "stream_golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d streams, the presets make %d", len(want), len(got))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("stream %s: digest %s, golden %s", key, got[key], w)
		}
	}
}
