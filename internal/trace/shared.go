package trace

import "repro/internal/isa"

// Shared tees one generator to two consumers — the vocal and the mute
// core of a Reunion pair — guaranteeing they observe bit-identical
// instruction streams. The faster side pulls ahead into a buffer that
// is trimmed once both sides have consumed an instruction; the skew is
// naturally bounded by the pair's instruction windows because the
// Check stage prevents either core from committing far ahead of the
// other.
type Shared struct {
	g    *Gen
	buf  []isa.Inst
	base uint64 // stream index of buf[0]
	cur  [2]uint64
	solo bool // side 1 detached (performance mode)
}

// NewShared wraps g for two-consumer use. A Shared starts in solo mode
// (only side 0 attached); Attach joins side 1 at side 0's position.
func NewShared(g *Gen) *Shared {
	return &Shared{g: g, solo: true}
}

// Gen exposes the underlying generator (for calibration counters).
func (s *Shared) Gen() *Gen { return s.g }

// Attach joins side 1 (the mute) to the stream at side 0's current
// position. It is called when a pair enters DMR mode: the mute core
// resumes redundant execution exactly where the vocal stands.
func (s *Shared) Attach() {
	s.trim()
	s.cur[1] = s.cur[0]
	s.solo = false
}

// Detach removes side 1 (Leave-DMR: the vocal continues alone in
// performance mode).
func (s *Shared) Detach() {
	s.solo = true
	s.trim()
}

// Peek returns the instruction the given side's Consume will advance
// past (0 = vocal, 1 = mute), without advancing the cursor.
func (s *Shared) Peek(side int) isa.Inst {
	idx := s.cur[side]
	for idx >= s.base+uint64(len(s.buf)) {
		s.buf = append(s.buf, s.g.Next())
	}
	return s.buf[idx-s.base]
}

// Consume advances the given side's cursor past the instruction Peek
// returns.
func (s *Shared) Consume(side int) {
	idx := s.cur[side]
	for idx >= s.base+uint64(len(s.buf)) {
		s.buf = append(s.buf, s.g.Next())
	}
	s.cur[side] = idx + 1
	s.trim()
}

// MaxCursor returns the stream position of the side that has consumed
// the most instructions; the sequence number of the last instruction
// consumed by that side equals this value. Mode transitions use it as
// the drain barrier: both cores fetch exactly up to it, so both
// pipelines can drain without waiting on unfetched partner work.
func (s *Shared) MaxCursor() uint64 {
	m := s.cur[0]
	if !s.solo && s.cur[1] > m {
		m = s.cur[1]
	}
	return m
}

// Skew returns how many instructions side 0 is ahead of side 1
// (negative if behind).
func (s *Shared) Skew() int64 {
	return int64(s.cur[0]) - int64(s.cur[1])
}

// trimSlack bounds how many consumed instructions may sit at the front
// of the buffer before trim compacts it, so consumption costs amortized
// O(1) instead of one memmove of the in-flight tail per instruction.
const trimSlack = 64

// trim drops buffered instructions both sides have consumed. A fully
// consumed buffer truncates for free; otherwise compaction is deferred
// until trimSlack instructions of dead prefix have accumulated.
func (s *Shared) trim() {
	minCur := s.cur[0]
	if !s.solo && s.cur[1] < minCur {
		minCur = s.cur[1]
	}
	n := minCur - s.base
	if n == 0 {
		return
	}
	if n == uint64(len(s.buf)) {
		s.buf = s.buf[:0]
		s.base = minCur
		return
	}
	if n >= trimSlack {
		s.buf = s.buf[:copy(s.buf, s.buf[n:])]
		s.base = minCur
	}
}

// Side returns a single-consumer view of the stream.
func (s *Shared) Side(side int) *SideSource { return &SideSource{s: s, side: side} }

// SideSource adapts one side of a Shared stream to the core's
// Peek/Consume interface.
type SideSource struct {
	s    *Shared
	side int
}

// Peek inspects the next instruction without consuming it.
func (ss *SideSource) Peek() isa.Inst { return ss.s.Peek(ss.side) }

// Consume advances past the instruction Peek returns.
func (ss *SideSource) Consume() { ss.s.Consume(ss.side) }
