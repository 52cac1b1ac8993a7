// Package tier implements the profile-guided tiering controller
// (engine "tiered"): a program starts on the baseline bytecode VM and
// is promoted in the background to optimized bytecode, then to
// guard/deopt range-check-eliminated bytecode (vmrce), and finally to
// the closure-compiled top tier as its hotness counters cross the
// promotion thresholds. Promotion never changes an observable — every
// tier implements the same contract — so tiering only moves
// wall-clock.
//
// The controller's invariants:
//
//   - No run ever blocks on recompilation. Promotion is decided at run
//     entry from the counters of completed runs and executes on a
//     background goroutine; the run that triggered it still executes
//     on the current tier.
//   - Promotion is profile-guided. While a program serves runs on the
//     vmopt or vmrce tier, the foreground accumulates a dispatch-digram
//     profile (vm.DispatchStats) that the eventual JITCompile uses for
//     superinstruction selection — the jit fuses what this program
//     actually executed, not a static table.
//   - Failure degrades, it never surfaces. A promotion that panics
//     (contained by vm.Optimize/vm.JITCompile as *guard.InternalError)
//     or is failed by the tier.promote.fail chaos site tombstones that
//     tier; the program keeps serving runs where it is. A jit-tier run
//     that dies with a contained internal error demotes the program —
//     the jit is tombstoned and the run transparently re-executes on
//     the best switch-VM tier (vmrce, else vmopt — never the tree).
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

// Thresholds configures when a program is promoted. A tier is entered
// once EITHER its run count or its cumulative instruction count from
// completed runs reaches the bound. Zero fields take the package
// defaults; to effectively disable a promotion set its bounds to
// ^uint64(0).
type Thresholds struct {
	// OptRuns / OptInstrs gate promotion vm → vmopt.
	OptRuns   uint64
	OptInstrs uint64
	// RceRuns / RceInstrs gate promotion vmopt → vmrce (the guard/deopt
	// range-check-eliminated tier, vm.OptimizeRCE over the base
	// bytecode). The rce promotion waits for the vmopt promotion to
	// resolve so the ladder order is deterministic.
	RceRuns   uint64
	RceInstrs uint64
	// JitRuns / JitInstrs gate promotion vmrce → vmjit. The jit
	// additionally waits for the rce promotion to resolve (it compiles
	// the guard-rewritten program when one exists, the optimized one
	// when rce failed) and for at least one profiled switch-VM run, so
	// superinstruction selection always has a real profile.
	JitRuns   uint64
	JitInstrs uint64
}

// Default promotion thresholds: the second run of a program promotes
// it off the naive tier, the third arms the guard/deopt rewrite, and a
// handful of warm runs (or any serious instruction volume) sends it to
// the closure tier.
const (
	DefaultOptRuns   = 2
	DefaultOptInstrs = 1 << 18
	DefaultRceRuns   = 3
	DefaultRceInstrs = 1 << 20
	DefaultJitRuns   = 4
	DefaultJitInstrs = 1 << 21
)

func (t Thresholds) withDefaults() Thresholds {
	if t.OptRuns == 0 {
		t.OptRuns = DefaultOptRuns
	}
	if t.OptInstrs == 0 {
		t.OptInstrs = DefaultOptInstrs
	}
	if t.RceRuns == 0 {
		t.RceRuns = DefaultRceRuns
	}
	if t.RceInstrs == 0 {
		t.RceInstrs = DefaultRceInstrs
	}
	if t.JitRuns == 0 {
		t.JitRuns = DefaultJitRuns
	}
	if t.JitInstrs == 0 {
		t.JitInstrs = DefaultJitInstrs
	}
	return t
}

// TierForRuns returns the tier a program with the given completed-run
// count would be eligible for under t — the run-count arm of the
// promotion predicate, without the instruction-volume arm. Fleet
// coordinators use it to decide a tier in job-submission order, so
// workers receive an explicit tier and never make promotion decisions
// themselves (remote run counters would be scheduling-dependent).
func (t Thresholds) TierForRuns(runs uint64) string {
	t = t.withDefaults()
	switch {
	case runs >= t.JitRuns:
		return TierVMJit
	case runs >= t.RceRuns:
		return TierVMRCE
	case runs >= t.OptRuns:
		return TierVMOpt
	}
	return TierVM
}

// Promotion state machine values (per target tier).
const (
	stateIdle = uint32(iota)
	stateInFlight
	stateDone
	stateFailed // tombstone: never retried
)

// Program is one program's tiering handle: the compiled tiers that
// exist so far plus the hotness counters and promotion state. Safe for
// concurrent Run calls; all observables are identical on every tier,
// so concurrency only affects which tier serves which run, never what
// the run returns.
type Program struct {
	th   Thresholds
	base *vm.Program

	opt atomic.Pointer[vm.Program]
	rce atomic.Pointer[vm.Program]
	jit atomic.Pointer[vm.JITProgram]

	runs    atomic.Uint64 // completed runs
	instrs  atomic.Uint64 // cumulative instructions of completed runs
	profied atomic.Uint64 // vmopt/vmrce-tier runs folded into the profile

	optState atomic.Uint32
	rceState atomic.Uint32
	jitState atomic.Uint32
	jitDead  atomic.Bool // demotion tombstone

	promotions atomic.Uint64
	demotions  atomic.Uint64

	profMu sync.Mutex
	prof   vm.DispatchStats

	wg sync.WaitGroup // in-flight background promotions
}

// Compile builds the tiering handle for p at its base tier (the naive
// bytecode VM). Nothing is optimized or closure-compiled yet; that
// happens in the background as runs accumulate.
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
// (vm.Build(e, ...)) through: the tiering controller under th for an
// engine that Promotes, a JitHandle for one whose vm.EngineSpec
// closure-compiles, and vp itself for the rest. It is the one place
// that picks a handle by engine.
func NewHandle(e interp.Engine, vp *vm.Program, th Thresholds) vm.Runner {
	if Promotes(e) {
		return FromBytecode(vp, th)
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

// Snapshot is the controller's observable state, exported towards
// evalpool metrics and the nascentd /metrics wire form.
type Snapshot struct {
	// Tier is the tier the NEXT run will execute on.
	Tier string
	// Runs and Instrs are the hotness counters: completed runs and
	// their cumulative instruction count.
	Runs   uint64
	Instrs uint64
	// ProfiledRuns counts the vmopt/vmrce-tier runs folded into the
	// promotion profile.
	ProfiledRuns uint64
	// Promotions counts tier transitions that completed (vm→vmopt,
	// vmopt→vmrce, and vmrce→vmjit each count one); Demotions counts
	// jit tombstones.
	Promotions uint64
	Demotions  uint64
}

// Snapshot returns the current tier and counters.
func (tp *Program) Snapshot() Snapshot {
	return Snapshot{
		Tier:         tp.tierName(),
		Runs:         tp.runs.Load(),
		Instrs:       tp.instrs.Load(),
		ProfiledRuns: tp.profied.Load(),
		Promotions:   tp.promotions.Load(),
		Demotions:    tp.demotions.Load(),
	}
}

func (tp *Program) tierName() string {
	if tp.jit.Load() != nil && !tp.jitDead.Load() {
		return TierVMJit
	}
	if tp.rce.Load() != nil {
		return TierVMRCE
	}
	if tp.opt.Load() != nil {
		return TierVMOpt
	}
	return TierVM
}

// Settle blocks until no background promotion is in flight. Runs keep
// executing while promotions compile; Settle is for tests and for
// draining before snapshotting deterministic promotion state.
func (tp *Program) Settle() { tp.wg.Wait() }

// Run executes the program on its current tier. The first call may
// trigger background promotion for LATER calls but itself runs on the
// tier that is ready now — Run never waits for a compile.
func (tp *Program) Run(cfg interp.Config) (interp.Result, error) {
	tp.maybePromote()

	if jp := tp.jit.Load(); jp != nil && !tp.jitDead.Load() {
		res, err := jp.Run(cfg)
		var ie *guard.InternalError
		if err != nil && errors.As(err, &ie) {
			// Contained jit failure: tombstone the tier and re-execute
			// on the optimized switch VM. Every tier is deterministic,
			// so the replay observes the same program state the jit
			// would have — the demotion is invisible in results.
			tp.jit.Store(nil)
			tp.jitDead.Store(true)
			tp.demotions.Add(1)
		} else {
			tp.record(res)
			return res, err
		}
	}

	// Serve on the best ready switch-VM tier: vmrce when the guard
	// rewrite landed, else vmopt. While the jit tier hasn't been
	// requested yet, these runs collect the dispatch digrams that will
	// drive superinstruction selection — preferentially over the
	// guard-rewritten stream, since that is the stream the jit will
	// compile.
	if sp := tp.rce.Load(); sp != nil {
		res, err := tp.runProfiled(sp, cfg)
		tp.record(res)
		return res, err
	}
	if op := tp.opt.Load(); op != nil {
		res, err := tp.runProfiled(op, cfg)
		tp.record(res)
		return res, err
	}

	res, err := tp.base.Run(cfg)
	tp.record(res)
	return res, err
}

// runProfiled runs one switch-VM tier request, folding its dispatch
// profile into the promotion profile while the jit hasn't been
// requested yet.
func (tp *Program) runProfiled(sp *vm.Program, cfg interp.Config) (interp.Result, error) {
	if tp.jitState.Load() == stateIdle {
		res, ds, err := sp.RunDispatch(cfg)
		tp.profMu.Lock()
		tp.prof.Merge(&ds)
		tp.profMu.Unlock()
		tp.profied.Add(1)
		return res, err
	}
	return sp.Run(cfg)
}

func (tp *Program) record(res interp.Result) {
	tp.runs.Add(1)
	tp.instrs.Add(res.Instructions)
}

// maybePromote starts at most one background promotion per target
// tier, decided from completed-run counters so a run-once program
// never recompiles.
func (tp *Program) maybePromote() {
	runs, instrs := tp.runs.Load(), tp.instrs.Load()

	if (runs >= tp.th.OptRuns || instrs >= tp.th.OptInstrs) &&
		tp.optState.CompareAndSwap(stateIdle, stateInFlight) {
		tp.wg.Add(1)
		go tp.promoteOpt()
	}

	// The rce promotion waits for the vmopt one to resolve (done or
	// tombstoned) so the ladder order — and thus the tier every run
	// count maps to — is deterministic.
	if optSt := tp.optState.Load(); (optSt == stateDone || optSt == stateFailed) &&
		(runs >= tp.th.RceRuns || instrs >= tp.th.RceInstrs) &&
		tp.rceState.CompareAndSwap(stateIdle, stateInFlight) {
		tp.wg.Add(1)
		go tp.promoteRce()
	}

	// The jit waits for the rce attempt to resolve: it compiles the
	// guard-rewritten program when one exists, the plain optimized one
	// when the rce promotion was tombstoned.
	if rceSt := tp.rceState.Load(); (rceSt == stateDone || rceSt == stateFailed) &&
		tp.bestSwitch() != nil && tp.profied.Load() >= 1 &&
		(runs >= tp.th.JitRuns || instrs >= tp.th.JitInstrs) &&
		tp.jitState.CompareAndSwap(stateIdle, stateInFlight) {
		tp.wg.Add(1)
		go tp.promoteJit()
	}
}

// bestSwitch returns the highest switch-VM tier compiled so far (the
// jit's input program): vmrce, else vmopt, else nil.
func (tp *Program) bestSwitch() *vm.Program {
	if sp := tp.rce.Load(); sp != nil {
		return sp
	}
	return tp.opt.Load()
}

func (tp *Program) promoteOpt() {
	defer tp.wg.Done()
	if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, TierVMOpt) {
		tp.optState.Store(stateFailed)
		return
	}
	op, err := vm.Optimize(tp.base)
	if err != nil {
		// Contained optimizer panic: stay on the base tier forever.
		tp.optState.Store(stateFailed)
		return
	}
	tp.opt.Store(op)
	tp.optState.Store(stateDone)
	tp.promotions.Add(1)
}

func (tp *Program) promoteRce() {
	defer tp.wg.Done()
	if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, TierVMRCE) {
		tp.rceState.Store(stateFailed)
		return
	}
	// The guard rewrite runs over the BASE bytecode (it needs the
	// compiler's loop metadata and opcode shapes), then through the
	// regular optimizer — vm.OptimizeRCE. A contained failure
	// tombstones the tier; the program keeps serving on vmopt.
	sp, err := vm.OptimizeRCE(tp.base)
	if err != nil {
		tp.rceState.Store(stateFailed)
		return
	}
	tp.rce.Store(sp)
	tp.rceState.Store(stateDone)
	tp.promotions.Add(1)
}

// JitHandle wraps an already-optimized program with the vmjit engine's
// warm-up protocol: the first run executes on the switch VM with
// dispatch accounting and hands the profile to a background
// JITCompile, so superinstruction selection fuses the digrams this
// program actually executes and no run ever blocks on the compile.
// A contained jit failure (compile, chaos-injected promotion failure,
// or run) tombstones the closure tier and the handle keeps serving on
// the optimized switch VM — never the tree. NewHandle builds one over
// the guard/deopt-rewritten stream for vmjit.
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
// on the optimized switch VM (the first run doubling as the profiling
// pass).
func (h *JitHandle) Run(cfg interp.Config) (interp.Result, error) {
	if jp := h.jit.Load(); jp != nil && !h.dead.Load() {
		res, err := jp.Run(cfg)
		var ie *guard.InternalError
		if err != nil && errors.As(err, &ie) {
			// Contained closure-tier failure: tombstone and replay on
			// the optimized switch VM (same observables, lower tier).
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

// Snapshot returns the handle's tier and counters in the same shape as
// a tiering controller's (the handle starts at the tier of its wrapped
// program — vmrce for the usual CompileRCE input, vmopt otherwise).
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

func (tp *Program) promoteJit() {
	defer tp.wg.Done()
	if chaos.Active() && chaos.Fire(chaos.SiteTierPromote, TierVMJit) {
		tp.jitState.Store(stateFailed)
		return
	}
	tp.profMu.Lock()
	prof := tp.prof
	tp.profMu.Unlock()
	jp, err := vm.JITCompile(tp.bestSwitch(), &prof)
	if err != nil {
		// Contained closure-compile panic: stay on vmopt forever.
		tp.jitState.Store(stateFailed)
		return
	}
	tp.jit.Store(jp)
	tp.jitState.Store(stateDone)
	tp.promotions.Add(1)
}
