// Package tier implements the run handles that warm up in the
// background: the tiering controller (engine "tiered") and JitHandle,
// the vmjit engine's warm-up. A tiered program starts cold on the
// baseline bytecode VM. Once it is hot — its completed runs or their
// cumulative instructions reach the Thresholds — it builds vmrce's
// bytecode (vm.OptimizeRCE over the base) in the background and hands
// every later run to a JitHandle over it, the same handle the vmjit
// engine runs through. The ladder is vm → vmrce → vmjit. Every tier
// implements the same contract, so tiering only moves wall-clock.
//
// The invariants:
//
//   - No run ever blocks on a compile. Promotion is decided at run
//     entry from the counters of completed runs and executes on a
//     background goroutine; the run that triggered it still executes
//     on the current tier.
//   - The jit is profile-guided. A JitHandle's first run executes on
//     the switch VM with dispatch accounting (vm.DispatchStats), and
//     the background JITCompile fuses the digrams this program
//     actually executed, not a static table.
//   - Failure degrades, it never surfaces. A promotion that fails
//     (contained by vm.OptimizeRCE/vm.JITCompile as
//     *guard.InternalError, or by the tier.promote.fail chaos site)
//     tombstones that tier; the program keeps serving runs where it
//     is. A jit run that dies with a contained internal error demotes
//     the JitHandle: the jit is tombstoned and the run transparently
//     re-executes on vmrce — never the tree.
package tier

import (
	"errors"
	"sync"
	"sync/atomic"

	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/ir"
	"nascent/internal/vm"
)

func init() {
	interp.RegisterEngine(interp.EngineTiered, func(p *ir.Program, cfg interp.Config) (interp.Result, error) {
		tp, err := Compile(p, Thresholds{})
		if err != nil {
			return interp.Result{}, err
		}
		return tp.Run(cfg)
	})
}

// Thresholds says when a tiered program is hot: once EITHER its
// completed runs reach Runs or their cumulative instruction count
// reaches Instrs. Zero fields take the package defaults; ^uint64(0)
// disables an arm.
type Thresholds struct {
	Runs   uint64
	Instrs uint64
}

// Default thresholds: the third run of a program (or any serious
// instruction volume) starts its promotion off the cold tier.
const (
	DefaultRuns   = 2
	DefaultInstrs = 1 << 18
)

func (t Thresholds) withDefaults() Thresholds {
	if t.Runs == 0 {
		t.Runs = DefaultRuns
	}
	if t.Instrs == 0 {
		t.Instrs = DefaultInstrs
	}
	return t
}

// TierForRuns returns the tier a settled program with the given
// completed-run count runs its next run on under t — the run-count arm
// of the promotion predicate, without the instruction-volume arm. The
// run that finds the program hot still runs cold, its successor is the
// JitHandle's profiled vmrce run, and every later run is on the jit.
// Fleet coordinators use it to decide a tier in job-submission order,
// so workers receive an explicit tier and never make promotion
// decisions themselves (remote run counters would be
// scheduling-dependent).
func (t Thresholds) TierForRuns(runs uint64) string {
	t = t.withDefaults()
	switch {
	case runs <= t.Runs:
		return TierVM
	case runs == t.Runs+1:
		return TierVMRCE
	}
	return TierVMJit
}

// Program is one program's tiering handle: the cold base bytecode, the
// hotness counters of its cold runs, and the JitHandle that serves
// every run once the promotion lands. Safe for concurrent Run calls;
// all observables are identical on every tier, so concurrency only
// affects which tier serves which run, never what the run returns.
type Program struct {
	th   Thresholds
	base *vm.Program
	hot  atomic.Pointer[JitHandle]

	runs      atomic.Uint64 // completed cold runs
	instrs    atomic.Uint64 // cumulative instructions of completed cold runs
	promoting atomic.Bool   // the promotion started; it is never retried

	wg sync.WaitGroup // the in-flight background promotion
}

// Compile builds the tiering handle for p at its cold tier (the naive
// bytecode VM). Nothing is optimized or closure-compiled yet; that
// happens in the background once the program is hot.
func Compile(p *ir.Program, th Thresholds) (*Program, error) {
	base, err := vm.Compile(p)
	if err != nil {
		return nil, err
	}
	return FromBytecode(base, th), nil
}

// FromBytecode wraps an already-compiled baseline program. The caller
// must not run the program through a path that mutates it (vm.Program
// is immutable after Compile, so any normal use is fine).
func FromBytecode(base *vm.Program, th Thresholds) *Program {
	return &Program{th: th.withDefaults(), base: base}
}

// Promotes reports whether engine e runs through the tiering
// controller, whose tier moves with hotness, rather than at one tier.
func Promotes(e interp.Engine) bool { return e == interp.EngineTiered }

// Handle is a run handle that warms up in the background: a tiering
// controller or a JitHandle.
type Handle interface {
	vm.Runner
	Settle()
	Snapshot() Snapshot
}

// NewHandle returns the run handle engine e executes its bytecode
// (vm.Build(e, ...)) through: the tiering controller for an engine that
// Promotes, a JitHandle for one whose vm.EngineSpec closure-compiles,
// and vp itself for the rest. It is the one place that picks a handle
// by engine.
func NewHandle(e interp.Engine, vp *vm.Program) vm.Runner {
	if Promotes(e) {
		return FromBytecode(vp, Thresholds{})
	}
	if vm.Spec(e).JIT {
		return &JitHandle{vp: vp}
	}
	return vp
}

// Tier names, as reported by Snapshot and the service metrics. Each is
// the name of the engine whose bytecode the tier runs, so
// interp.ParseEngine maps a tier to its row of the vm engine table.
const (
	TierVM    = "vm"
	TierVMOpt = "vmopt"
	TierVMRCE = "vmrce"
	TierVMJit = "vmjit"
)

// Snapshot is a handle's observable state, exported towards evalpool
// metrics and the nascentd /metrics wire form.
type Snapshot struct {
	// Tier is the tier the NEXT run will execute on.
	Tier string
	// Runs and Instrs are the hotness counters: completed runs and
	// their cumulative instruction count.
	Runs   uint64
	Instrs uint64
	// ProfiledRuns counts the switch-VM runs profiled for the jit.
	ProfiledRuns uint64
	// Promotions counts tier transitions that completed (a tiered
	// program's vm→vmrce and vmrce→vmjit each count one); Demotions
	// counts jit tombstones.
	Promotions uint64
	Demotions  uint64
}

// Snapshot returns the current tier and counters: the cold runs' plus,
// once the program is hot, its JitHandle's.
func (tp *Program) Snapshot() Snapshot {
	s := Snapshot{Tier: TierVM}
	if h := tp.hot.Load(); h != nil {
		s = h.Snapshot()
		s.Promotions++
	}
	s.Runs += tp.runs.Load()
	s.Instrs += tp.instrs.Load()
	return s
}

// Settle blocks until no background compile is in flight. Runs keep
// executing while promotions compile; Settle is for tests and for
// draining before snapshotting deterministic promotion state.
func (tp *Program) Settle() {
	tp.wg.Wait()
	if h := tp.hot.Load(); h != nil {
		h.Settle()
	}
}

// Run executes the program on its current tier. A cold run may start
// the background promotion for LATER runs but itself runs on the base
// bytecode — Run never waits for a compile.
func (tp *Program) Run(cfg interp.Config) (interp.Result, error) {
	if h := tp.hot.Load(); h != nil {
		return h.Run(cfg)
	}
	if (tp.runs.Load() >= tp.th.Runs || tp.instrs.Load() >= tp.th.Instrs) &&
		tp.promoting.CompareAndSwap(false, true) {
		tp.wg.Add(1)
		go tp.promote()
	}
	res, err := tp.base.Run(cfg)
	tp.runs.Add(1)
	tp.instrs.Add(res.Instructions)
	return res, err
}

// promote builds vmrce's bytecode from the base (the guard rewrite
// needs the compiler's loop metadata and opcode shapes) and hands
// later runs to a JitHandle over it. A contained failure leaves the
// program cold for good.
func (tp *Program) promote() {
	defer tp.wg.Done()
	if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, TierVMRCE) {
		return
	}
	rp, err := vm.OptimizeRCE(tp.base)
	if err != nil {
		return
	}
	tp.hot.Store(&JitHandle{vp: rp})
}

// JitHandle wraps an already-optimized program with the vmjit engine's
// warm-up protocol: the first run executes on the switch VM with
// dispatch accounting and hands the profile to a background
// JITCompile, so superinstruction selection fuses the digrams this
// program actually executes and no run ever blocks on the compile.
// A contained jit failure (compile, chaos-injected promotion failure,
// or run) tombstones the closure tier and the handle keeps serving on
// the switch VM — never the tree. It is the only code that profiles,
// closure-compiles or demotes: NewHandle builds one over vmrce's
// bytecode for vmjit, and a hot tiered program builds one over its
// own vmrce promotion.
type JitHandle struct {
	vp        *vm.Program
	profiling atomic.Bool
	jit       atomic.Pointer[vm.JITProgram]
	dead      atomic.Bool

	runs       atomic.Uint64
	instrs     atomic.Uint64
	profiled   atomic.Uint64
	promotions atomic.Uint64
	demotions  atomic.Uint64

	wg sync.WaitGroup
}

// Run executes one request: on the closure tier once it exists, else
// on the switch VM (the first run doubling as the profiling pass).
func (h *JitHandle) Run(cfg interp.Config) (interp.Result, error) {
	if jp := h.jit.Load(); jp != nil && !h.dead.Load() {
		res, err := jp.Run(cfg)
		var ie *guard.InternalError
		if err != nil && errors.As(err, &ie) {
			// Contained closure-tier failure: tombstone and replay on
			// the switch VM. Every tier is deterministic, so the replay
			// observes the same program state the jit would have — the
			// demotion is invisible in results.
			h.dead.Store(true)
			h.demotions.Add(1)
			res, err = h.vp.Run(cfg)
		}
		h.record(res)
		return res, err
	}
	if !h.dead.Load() && h.profiling.CompareAndSwap(false, true) {
		res, ds, err := h.vp.RunDispatch(cfg)
		h.profiled.Add(1)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, TierVMJit) {
				h.dead.Store(true)
				return
			}
			jp, jerr := vm.JITCompile(h.vp, &ds)
			if jerr != nil {
				h.dead.Store(true)
				return
			}
			h.jit.Store(jp)
			h.promotions.Add(1)
		}()
		h.record(res)
		return res, err
	}
	res, err := h.vp.Run(cfg)
	h.record(res)
	return res, err
}

func (h *JitHandle) record(res interp.Result) {
	h.runs.Add(1)
	h.instrs.Add(res.Instructions)
}

// Settle blocks until no background closure compile is in flight.
func (h *JitHandle) Settle() { h.wg.Wait() }

// Snapshot returns the handle's tier and counters. The handle starts
// at the tier of its wrapped program: vmrce for vmrce's bytecode, and
// vmopt when the guard rewrite degraded to plain Optimize.
func (h *JitHandle) Snapshot() Snapshot {
	t := TierVMOpt
	if h.vp.RCEApplied() {
		t = TierVMRCE
	}
	if h.jit.Load() != nil && !h.dead.Load() {
		t = TierVMJit
	}
	return Snapshot{
		Tier:         t,
		Runs:         h.runs.Load(),
		Instrs:       h.instrs.Load(),
		ProfiledRuns: h.profiled.Load(),
		Promotions:   h.promotions.Load(),
		Demotions:    h.demotions.Load(),
	}
}
