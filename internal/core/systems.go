package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

// Options configures one simulated system.
type Options struct {
	// Cfg is the chip configuration; nil uses the paper's target
	// multicore (sim.DefaultConfig).
	Cfg *sim.Config
	// Kind selects the system configuration.
	Kind Kind
	// Workload is the application model run by every guest.
	Workload *workload.Params
	// Policy names the runtime mode policy (internal/mode) that decides
	// when pairs couple into DMR and decouple back to performance mode.
	// Empty selects "static": the kind's pre-built plans, rotated at
	// gang timeslice boundaries, byte-identical to the pre-policy
	// implementation.
	Policy string
	// Seed makes the run reproducible; different seeds give the
	// independent runs behind the confidence intervals.
	Seed uint64
	// PABDisabled turns PAB enforcement off (fault-injection ablation:
	// violations are counted, not prevented).
	PABDisabled bool
	// ForcePAB guards performance-mode stores with the PAB even on
	// system kinds that do not enable it by default (the pure
	// performance-mode reliability scenario: NoDMR2X with the MMM's
	// memory protection active).
	ForcePAB bool
	// FaultPlan, when non-nil, runs a fault-injection campaign.
	FaultPlan *fault.Plan
	// Recycler, when non-nil, supplies recycled cache line arrays to
	// the hierarchy; callers that set it must Release the chip when
	// done. Campaign workers use one per worker so thousands of
	// short-lived chips reuse a handful of multi-megabyte arrays.
	Recycler *cache.Recycler
	// Recorder, when non-nil, attaches a flight recorder that traces
	// mode transitions, policy decisions, faults and run-loop bulk
	// steps. Pure observation: it never consumes RNG, never changes
	// event order, and never appears in Metrics, so results are
	// byte-identical with or without it.
	Recorder *obs.Recorder
}

// NewSystem builds a chip configured as one of the paper's evaluated
// systems, with guests created, memory laid out, the PAT initialized,
// and the initial VCPU-to-core mapping applied.
func NewSystem(opts Options) (*Chip, error) {
	cfg := opts.Cfg
	if cfg == nil {
		cfg = sim.DefaultConfig()
	}
	if opts.Workload == nil {
		return nil, fmt.Errorf("core: no workload given")
	}
	c, err := newChip(cfg, opts.Kind, opts.Recycler)
	if err != nil {
		return nil, err
	}
	c.rec = opts.Recorder
	pairs := cfg.Cores / 2
	b := sched.NewBuilder(cfg, c.PM, 4*cfg.Cores)

	mk := func(name string, n int, mode vcpu.Mode, salt uint64) (*sched.Guest, error) {
		g, err := b.Build(name, opts.Workload, n, mode, opts.Seed^salt)
		if err != nil {
			return nil, err
		}
		c.Guests = append(c.Guests, g)
		return g, nil
	}

	switch opts.Kind {
	case KindNoDMR2X:
		g, err := mk("app", cfg.Cores, vcpu.ModePerformance, 0x2a)
		if err != nil {
			return nil, err
		}
		pl := make(plan, pairs)
		for i := 0; i < pairs; i++ {
			pl[i] = pairPlan{vocal: g.VCPUs[2*i], mute: g.VCPUs[2*i+1]}
		}
		c.groups = []plan{pl}

	case KindNoDMR:
		g, err := mk("app", pairs, vcpu.ModePerformance, 0x2a)
		if err != nil {
			return nil, err
		}
		pl := make(plan, pairs)
		for i := 0; i < pairs; i++ {
			pl[i] = pairPlan{vocal: g.VCPUs[i]}
		}
		c.groups = []plan{pl}

	case KindReunion:
		g, err := mk("app", pairs, vcpu.ModeReliable, 0x2a)
		if err != nil {
			return nil, err
		}
		pl := make(plan, pairs)
		for i := 0; i < pairs; i++ {
			pl[i] = pairPlan{vocal: g.VCPUs[i], dmr: true}
		}
		c.groups = []plan{pl}

	case KindDMRBase, KindMMMIPC, KindMMMTP:
		// Consolidated server: one guest needs reliability, the other
		// needs performance. Both run the same application, as in the
		// paper's methodology.
		rg, err := mk("reliable", pairs, vcpu.ModeReliable, 0x52)
		if err != nil {
			return nil, err
		}
		rPlan := make(plan, pairs)
		for i := 0; i < pairs; i++ {
			rPlan[i] = pairPlan{vocal: rg.VCPUs[i], dmr: true}
		}
		var pPlan plan
		switch opts.Kind {
		case KindDMRBase:
			pg, err := mk("perf", pairs, vcpu.ModeReliable, 0x9f)
			if err != nil {
				return nil, err
			}
			pPlan = make(plan, pairs)
			for i := 0; i < pairs; i++ {
				pPlan[i] = pairPlan{vocal: pg.VCPUs[i], dmr: true}
			}
		case KindMMMIPC:
			pg, err := mk("perf", pairs, vcpu.ModePerformance, 0x9f)
			if err != nil {
				return nil, err
			}
			c.usePAB = true
			pPlan = make(plan, pairs)
			for i := 0; i < pairs; i++ {
				pPlan[i] = pairPlan{vocal: pg.VCPUs[i]}
			}
		case KindMMMTP:
			// The 16-VCPU performance guest is implemented as two
			// co-scheduled 8-VCPU guests running the same application,
			// exactly as the paper's methodology does.
			pg1, err := mk("perf", pairs, vcpu.ModePerformance, 0x9f)
			if err != nil {
				return nil, err
			}
			pg2, err := mk("perf2", pairs, vcpu.ModePerformance, 0xe3)
			if err != nil {
				return nil, err
			}
			c.usePAB = true
			pPlan = make(plan, pairs)
			for i := 0; i < pairs; i++ {
				pPlan[i] = pairPlan{vocal: pg1.VCPUs[i], mute: pg2.VCPUs[i]}
			}
		}
		c.groups = []plan{rPlan, pPlan}

	case KindSingleOS:
		g, err := mk("apps", pairs, vcpu.ModePerfUser, 0x2a)
		if err != nil {
			return nil, err
		}
		c.usePAB = true
		pl := make(plan, pairs)
		for i := 0; i < pairs; i++ {
			pl[i] = pairPlan{vocal: g.VCPUs[i]}
		}
		c.groups = []plan{pl}
		c.installSingleOSHooks()

	default:
		return nil, fmt.Errorf("core: unknown system kind %d", opts.Kind)
	}

	// Publish the finished memory layout to the PAT. The table was
	// created with the bare chip, before the guests above allocated
	// their memory; without this sync every guest page would still
	// read reliable-only and the PAB would deny legitimate
	// performance-mode stores.
	c.PAT.Sync(c.PM)

	if opts.ForcePAB {
		c.usePAB = true
	}
	if opts.PABDisabled {
		for _, p := range c.PABs {
			p.Enabled = false
		}
	}
	if opts.FaultPlan != nil {
		fp := *opts.FaultPlan
		if fp.Seed == 0 {
			fp.Seed = opts.Seed
		}
		c.Injector = fault.NewInjector(fp)
	}

	// Arm the mode policy and apply its initial mapping directly (no
	// transition cost at t=0). The static policy reproduces the
	// pre-policy behavior: group 0 everywhere, rotation at timeslice
	// boundaries on multi-group (consolidated) rosters.
	if err := c.installPolicy(opts.Policy); err != nil {
		return nil, err
	}
	return c, nil
}

// installSingleOSHooks wires the per-trap mode transitions of a
// single-OS mixed-mode system: every entry into privileged code on a
// performance-mode VCPU appropriates the paired core and enters DMR;
// every return to user code leaves it.
func (c *Chip) installSingleOSHooks() {
	enter := func(core *cpu.Core) bool {
		pi := core.ID / 2
		pl := c.curPlan[pi]
		if pl.dmr || pl.vocal == nil || pl.vocal.Mode != vcpu.ModePerfUser {
			return false
		}
		if c.trans[pi] == nil {
			c.startTransition(pi, pairPlan{vocal: pl.vocal, dmr: true}, true, c.Now, "trap-enter")
		}
		return true
	}
	leave := func(core *cpu.Core) bool {
		pi := core.ID / 2
		pl := c.curPlan[pi]
		if !pl.dmr || pl.vocal == nil || pl.vocal.Mode != vcpu.ModePerfUser {
			return false
		}
		if c.trans[pi] == nil {
			c.startTransition(pi, pairPlan{vocal: pl.vocal}, false, c.Now, "trap-return")
		}
		return true
	}
	for _, core := range c.Cores {
		core.OnTrapEnter = enter
		core.OnTrapReturn = leave
	}
}
