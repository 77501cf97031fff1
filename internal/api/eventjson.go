package api

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/stats"
)

// AppendJSON appends the JSON encoding of ev to dst and returns the
// extended buffer: exactly the bytes json.Marshal(ev) writes, built
// without reflection. Keys, their order and the omitempty rules follow
// the struct tags (the untagged core and stats types use their field
// names), nil maps and slices read null, map keys are sorted, floats
// and strings follow encoding/json's rules, times are RFC 3339 with
// nanoseconds and kinds go through Kind.MarshalJSON. A value
// json.Marshal refuses (a NaN or infinite float, a time outside years
// 0–9999, an unknown kind) returns dst as passed and the error
// json.Marshal returns for it.
func (ev *Event) AppendJSON(dst []byte) ([]byte, error) {
	e := &encoder{b: append(dst, '{')}
	e.key("seq").integer(ev.Seq)
	e.key("time").timestamp(ev.Time)
	e.key("type").str(string(ev.Type))
	e.optStr("run", ev.Run)
	e.key("cell").integer(int64(ev.Cell))
	e.optStr("key", ev.Key)
	e.optStr("worker", ev.Worker)
	e.optInt("attempt", int64(ev.Attempt))
	e.optInt("wall_ms", ev.WallMS)
	e.optStr("error", ev.Error)
	e.optInt("total", int64(ev.Total))
	if ev.Scale != nil {
		e.key("scale").scale(ev.Scale)
	}
	e.optBool("hit", ev.Hit)
	e.optStr("fp", ev.Fp)
	if ev.Job != nil {
		e.key("job").job(ev.Job)
	}
	if ev.Metrics != nil {
		e.key("metrics").metrics(ev.Metrics)
	}
	e.optInt("wave", int64(ev.Wave))
	e.optInt("trials", int64(ev.Trials))
	e.optFloat("half_width", ev.HalfWidth)
	e.optBool("capped", ev.Capped)
	if ev.Precision != nil {
		e.key("precision").precision(ev.Precision)
	}
	e.b = append(e.b, '}')
	if e.err != nil {
		return dst, e.err
	}
	return e.b, nil
}

// encoder appends JSON values to b. The first value it cannot write
// sets err; later appends still run, and the caller drops b.
type encoder struct {
	b   []byte
	err error
}

// fail records the error json.Marshal returns for v, unless an earlier
// value already failed.
func (e *encoder) fail(v any) {
	if e.err == nil {
		_, e.err = json.Marshal(v)
	}
}

// key opens a struct member: a comma unless the object has just
// opened, then the quoted name, which needs no escaping, and a colon.
func (e *encoder) key(name string) *encoder {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	return e
}

func (e *encoder) integer(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) unsigned(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

func (e *encoder) boolean(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float writes f as encoding/json does: the shortest representation,
// in exponent form below 1e-6 and from 1e21 up, with the exponent's
// leading zero dropped ("1e-07" reads "1e-7").
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.fail(f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// plain marks the bytes encoding/json writes unescaped: ASCII from the
// space up, except the quote, the backslash and the HTML characters <>&.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// str writes s quoted. Names, keys and digests are plain; a string
// that is not goes through encoding/json.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// timestamp writes t as Time.MarshalJSON does, which refuses what
// RFC 3339 cannot express: a year outside 0–9999 or a zone offset of a
// day or more.
func (e *encoder) timestamp(t time.Time) {
	const day = 24 * 60 * 60
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -day || off >= day {
		e.fail(t)
		return
	}
	e.b = append(e.b, '"')
	e.b = t.AppendFormat(e.b, time.RFC3339Nano)
	e.b = append(e.b, '"')
}

func (e *encoder) kind(k core.Kind) {
	q, err := k.MarshalJSON()
	if err != nil {
		e.fail(k)
		return
	}
	e.b = append(e.b, q...)
}

func (e *encoder) floats(v []float64) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

// object writes m as encoding/json writes a map: null when nil, else
// its members in sorted key order.
func object[V any](e *encoder, m map[string]V, val func(*encoder, V)) {
	if m == nil {
		e.b = append(e.b, "null"...)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for _, k := range keys {
		if e.b[len(e.b)-1] != '{' {
			e.b = append(e.b, ',')
		}
		e.str(k)
		e.b = append(e.b, ':')
		val(e, m[k])
	}
	e.b = append(e.b, '}')
}

// The opt members are the omitempty fields: written only when not zero.

func (e *encoder) optInt(name string, v int64) {
	if v != 0 {
		e.key(name).integer(v)
	}
}

func (e *encoder) optUint(name string, v uint64) {
	if v != 0 {
		e.key(name).unsigned(v)
	}
}

func (e *encoder) optBool(name string, v bool) {
	if v {
		e.key(name).boolean(v)
	}
}

func (e *encoder) optFloat(name string, v float64) {
	if v != 0 {
		e.key(name).float(v)
	}
}

func (e *encoder) optStr(name, v string) {
	if v != "" {
		e.key(name).str(v)
	}
}

func (e *encoder) scale(sc *Scale) {
	e.b = append(e.b, '{')
	e.key("warmup").unsigned(sc.Warmup)
	e.key("measure").unsigned(sc.Measure)
	e.key("timeslice").unsigned(sc.Timeslice)
	e.b = append(e.b, '}')
}

func (e *encoder) precision(p *Precision) {
	e.b = append(e.b, '{')
	e.optStr("metric", p.Metric)
	e.key("half_width").float(p.HalfWidth)
	e.optInt("wave_trials", int64(p.WaveTrials))
	e.optInt("min_trials", int64(p.MinTrials))
	e.optInt("max_trials", int64(p.MaxTrials))
	e.b = append(e.b, '}')
}

func (e *encoder) job(j *Job) {
	e.b = append(e.b, '{')
	e.key("workload").str(j.Workload)
	e.key("kind").kind(j.Kind)
	e.key("seed").unsigned(j.Seed)
	e.optStr("variant", j.Variant)
	e.key("knobs").knobs(&j.Knobs)
	e.b = append(e.b, '}')
}

func (e *encoder) knobs(k *Knobs) {
	e.b = append(e.b, '{')
	e.optBool("pab_serial", k.PABSerial)
	e.optBool("pab_disabled", k.PABDisabled)
	e.optBool("tso", k.TSO)
	e.optInt("flush_per_cycle", int64(k.FlushPerCycle))
	e.optFloat("fault_interval", k.FaultInterval)
	e.optStr("fault_kinds", k.FaultKinds)
	e.optInt("relia_trials", int64(k.ReliaTrials))
	e.optBool("force_pab", k.ForcePAB)
	e.optStr("policy", k.Policy)
	e.optInt("wave", int64(k.Wave))
	e.optInt("trial_offset", int64(k.TrialOffset))
	e.b = append(e.b, '}')
}

func (e *encoder) metrics(m *core.Metrics) {
	e.b = append(e.b, '{')
	e.key("Kind").kind(m.Kind)
	e.key("Workload").str(m.Workload)
	e.key("Cycles").unsigned(m.Cycles)
	object(e.key("GuestUser"), m.GuestUser, (*encoder).unsigned)
	object(e.key("GuestOS"), m.GuestOS, (*encoder).unsigned)
	object(e.key("GuestVCPUs"), m.GuestVCPUs, func(e *encoder, v int) { e.integer(int64(v)) })
	e.key("Core").coreCounters(&m.Core)
	e.key("Cache").cacheCounters(&m.Cache)
	e.key("EnterN").unsigned(m.EnterN)
	e.key("LeaveN").unsigned(m.LeaveN)
	e.key("EnterAvg").float(m.EnterAvg)
	e.key("LeaveAvg").float(m.LeaveAvg)
	e.key("CtxN").unsigned(m.CtxN)
	e.key("CtxAvg").float(m.CtxAvg)
	e.key("Checks").unsigned(m.Checks)
	e.key("Mismatches").unsigned(m.Mismatches)
	e.key("PABChecks").unsigned(m.PABChecks)
	e.key("PABMisses").unsigned(m.PABMisses)
	e.key("PABExceptions").unsigned(m.PABExceptions)
	e.key("WouldCorrupt").unsigned(m.WouldCorrupt)
	e.key("VerifyFailures").unsigned(m.VerifyFailures)
	e.key("MachineChecks").unsigned(m.MachineChecks)
	e.key("FaultsInjected").unsigned(m.FaultsInjected)
	if m.Relia != nil {
		e.key("Relia").relia(m.Relia)
	}
	e.key("UserCycPerSwitch").float(m.UserCycPerSwitch)
	e.key("OSCycPerSwitch").float(m.OSCycPerSwitch)
	e.b = append(e.b, '}')
}

func (e *encoder) relia(r *core.ReliaBatch) {
	e.b = append(e.b, '{')
	e.key("trials").integer(int64(r.Trials))
	if len(r.Injected) > 0 {
		object(e.key("injected"), r.Injected, (*encoder).unsigned)
	}
	e.optUint("misses", r.Misses)
	if len(r.Outcomes) > 0 {
		object(e.key("outcomes"), r.Outcomes, (*encoder).unsigned)
	}
	if len(r.DetectLat) > 0 {
		object(e.key("detect_lat"), r.DetectLat, (*encoder).floats)
	}
	if len(r.Recovery) > 0 {
		object(e.key("recovery"), r.Recovery, (*encoder).float)
	}
	e.optStr("log_digest", r.LogDigest)
	e.b = append(e.b, '}')
}

func (e *encoder) coreCounters(c *stats.CoreCounters) {
	e.b = append(e.b, '{')
	e.key("Cycles").unsigned(c.Cycles)
	e.key("UserCycles").unsigned(c.UserCycles)
	e.key("OSCycles").unsigned(c.OSCycles)
	e.key("UserCommits").unsigned(c.UserCommits)
	e.key("OSCommits").unsigned(c.OSCommits)
	e.key("Commits").unsigned(c.Commits)
	e.key("Loads").unsigned(c.Loads)
	e.key("Stores").unsigned(c.Stores)
	e.key("Branches").unsigned(c.Branches)
	e.key("Mispredicts").unsigned(c.Mispredicts)
	e.key("SerializingInsts").unsigned(c.SerializingInsts)
	e.key("WindowFullCycles").unsigned(c.WindowFullCycles)
	e.key("SIStallCycles").unsigned(c.SIStallCycles)
	e.key("CheckWaitCycles").unsigned(c.CheckWaitCycles)
	e.key("FetchStallCycles").unsigned(c.FetchStallCycles)
	e.key("StoreCommitStall").unsigned(c.StoreCommitStall)
	e.key("StoreLatCycles").unsigned(c.StoreLatCycles)
	e.key("LoadLatCycles").unsigned(c.LoadLatCycles)
	e.key("TLBMisses").unsigned(c.TLBMisses)
	e.key("TrapEntries").unsigned(c.TrapEntries)
	e.key("TrapReturns").unsigned(c.TrapReturns)
	e.key("IdleCycles").unsigned(c.IdleCycles)
	e.key("ModeSwitches").unsigned(c.ModeSwitches)
	e.key("EnterDMRCycles").unsigned(c.EnterDMRCycles)
	e.key("LeaveDMRCycles").unsigned(c.LeaveDMRCycles)
	e.key("PABChecks").unsigned(c.PABChecks)
	e.key("PABMisses").unsigned(c.PABMisses)
	e.key("PABExceptions").unsigned(c.PABExceptions)
	e.key("FingerprintChecks").unsigned(c.FingerprintChecks)
	e.key("FPMismatches").unsigned(c.FPMismatches)
	e.key("Recoveries").unsigned(c.Recoveries)
	e.b = append(e.b, '}')
}

func (e *encoder) cacheCounters(c *stats.CacheCounters) {
	e.b = append(e.b, '{')
	e.key("L1Hits").unsigned(c.L1Hits)
	e.key("L1Misses").unsigned(c.L1Misses)
	e.key("L2Hits").unsigned(c.L2Hits)
	e.key("L2Misses").unsigned(c.L2Misses)
	e.key("L3Hits").unsigned(c.L3Hits)
	e.key("C2CTransfers").unsigned(c.C2CTransfers)
	e.key("MemAccesses").unsigned(c.MemAccesses)
	e.key("Writebacks").unsigned(c.Writebacks)
	e.key("Invalidations").unsigned(c.Invalidations)
	e.key("IncoherentLoads").unsigned(c.IncoherentLoads)
	e.key("FlushedLines").unsigned(c.FlushedLines)
	e.key("FlushWritebacks").unsigned(c.FlushWritebacks)
	e.key("LatL2").unsigned(c.LatL2)
	e.key("LatC2C").unsigned(c.LatC2C)
	e.key("LatL3").unsigned(c.LatL3)
	e.key("LatMem").unsigned(c.LatMem)
	e.b = append(e.b, '}')
}
