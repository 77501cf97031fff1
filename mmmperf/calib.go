package main

import (
	"runtime"
	"sort"
	"time"
)

// The host's speed drifts under the benchmark. On the shared 2-vCPU
// virtual machine it was tuned on, co-tenants on the physical cores slow
// the simulator by up to 40% for stretches of ten seconds to minutes, in
// CPU time, not only in wall time, so two sets of runs of the same code
// land in different states. A fixed compute kernel tracks little of it
// (+10% where the simulator lost 40%); what tracks it is a kernel with
// the simulator's own sensitivities: unpredictable branches and a few
// MiB of scattered loads and stores. The calibrator runs such a kernel
// in short chunks between the workload's steps, and every host time the
// benchmark reports is scaled to the kernel's reference speed:
//
//	reported = measured x calibRefSeconds / (median of nearby chunks)
//
// A quiet box reports about what it measured; a slowed one reports what
// the quiet box would have. The kernel is part of the benchmark, so a
// change to the program cannot move it.

// calibIters is one chunk's kernel iterations, about 20 ms of CPU.
const calibIters = 700_000

// calibRefSeconds is one chunk's CPU time on the reference box when
// quiet (Xeon @ 2.0 GHz, go1.24); it only sets the scale.
const calibRefSeconds = 0.021

// calibNeighbours is how many chunks nearest in time a factor's median
// takes: enough to absorb one chunk's own noise, few enough (about two
// seconds of workload) to follow the host's changes.
const calibNeighbours = 5

// calibLine is one way of the kernel's cache model.
type calibLine struct {
	tag uint64
	lru uint32
}

// calibState is the kernel's working set: an 8192-set, 8-way cache model
// (1 MiB of tags) and 2 MiB of data. It persists between chunks and is
// shared by every calibrator; chunks run one at a time.
var calibState struct {
	sets  [8192 * 8]calibLine
	mem   [1 << 18]uint64
	x     uint64
	clock uint32
	sink  uint64
}

// calibKernel runs n iterations of a small interpreter whose loads and
// stores go through a set-associative cache model with LRU replacement:
// a random opcode stream (unpredictable branches), three quarters of the
// accesses near the last far one (locality) and the rest scattered over
// 64 MiB of tags. It allocates nothing.
func calibKernel(n int) {
	s := &calibState
	x := s.x
	if x == 0 {
		x = 88172645463325252
	}
	var regs [8]uint64
	var base uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := (x >> 3) & 7
		switch x & 7 {
		case 0, 1, 2:
			regs[r] += regs[(r+1)&7] ^ x
		case 3:
			if regs[r]&1 == 0 {
				regs[r] >>= 1
			} else {
				regs[r] = regs[r]*3 + 1
			}
		case 4, 5, 6:
			addr := base + (x>>16)&4095
			if (x>>8)&15 >= 12 {
				addr = (x >> 20) & (1<<26 - 1)
				base = addr
			}
			blk := addr >> 6
			ways := s.sets[(blk&8191)*8 : (blk&8191)*8+8]
			s.clock++
			hit := false
			for w := range ways {
				if ways[w].tag == blk {
					ways[w].lru = s.clock
					hit = true
					break
				}
			}
			if !hit {
				v := 0
				for w := 1; w < len(ways); w++ {
					if ways[w].lru < ways[v].lru {
						v = w
					}
				}
				ways[v] = calibLine{tag: blk, lru: s.clock}
			}
			regs[r] += s.mem[blk&(uint64(len(s.mem))-1)]
		case 7:
			s.mem[regs[r]&(uint64(len(s.mem))-1)] = regs[r]
		}
	}
	s.x = x
	s.sink += regs[0] ^ regs[7]
}

// calibrator records the kernel's chunk times over a run.
type calibrator struct {
	at   []time.Time
	cost []float64 // thread CPU seconds per chunk
	// spent is the CPU time the chunks took, for subtraction from
	// process CPU totals that enclose them.
	spent time.Duration
}

// sample runs one chunk on the calling goroutine's thread and records
// its thread CPU time, so that other threads' work (a second engine
// worker, the collector) does not count.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	start := threadCPUTime()
	calibKernel(calibIters)
	d := threadCPUTime() - start
	runtime.UnlockOSThread()
	c.at = append(c.at, time.Now())
	c.cost = append(c.cost, d.Seconds())
	c.spent += d
}

// factorAt is the scale for host times measured around t: the reference
// chunk time over the median of the calibNeighbours chunks nearest t.
// Without chunks it is 1.
func (c *calibrator) factorAt(t time.Time) float64 {
	if len(c.cost) == 0 {
		return 1
	}
	// Chunks are recorded in time order: take the window of
	// calibNeighbours around the first chunk at or after t.
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	lo := i - calibNeighbours/2
	if lo > len(c.at)-calibNeighbours {
		lo = len(c.at) - calibNeighbours
	}
	if lo < 0 {
		lo = 0
	}
	hi := lo + calibNeighbours
	if hi > len(c.at) {
		hi = len(c.at)
	}
	return calibRefSeconds / median(c.cost[lo:hi])
}

// factor is the run's median scale, for host times not tied to a moment.
func (c *calibrator) factor() float64 {
	if len(c.cost) == 0 {
		return 1
	}
	return calibRefSeconds / median(c.cost)
}
