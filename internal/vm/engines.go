package vm

import (
	"fmt"

	"nascent/internal/interp"
	"nascent/internal/ir"
)

// EngineSpec is one bytecode engine's row in the engine table, the one
// place that says which passes an engine runs (DESIGN.md, "Engines").
// Every caller that builds, ships, runs or degrades an engine's program
// reads it instead of switching on the engine. The run handle an
// engine executes through is picked by tier.NewHandle, since
// internal/vm/tier builds on this package.
type EngineSpec struct {
	// Bytecode is the engine whose bytecode this one executes: itself
	// for an engine with its own rewrite of the base lowering. vmjit
	// closure-compiles vmrce's bytecode, so its closures inherit the
	// guard-free fast loop bodies; tiered starts on vm's. EngineTree
	// means the engine has no bytecode.
	Bytecode interp.Engine
	// JIT reports that the engine closure-compiles its bytecode.
	JIT bool
	// Degrade is the engine a request falls back to while this engine's
	// breaker circuit is open. EngineTree ends the ladder.
	Degrade interp.Engine
	// rewrite turns the base lowering into this engine's bytecode (nil
	// keeps it); only rows whose Bytecode is themselves read it. Like
	// every rewrite stage it degrades rather than fails.
	rewrite func(*Program) *Program
}

// engineTable is indexed by engine. The tree engine's slot is the zero
// row.
var engineTable = [...]EngineSpec{
	interp.EngineVM:     {Bytecode: interp.EngineVM, Degrade: interp.EngineTree},
	interp.EngineVMOpt:  {Bytecode: interp.EngineVMOpt, Degrade: interp.EngineTree, rewrite: optimizeOrKeep},
	interp.EngineVMRCE:  {Bytecode: interp.EngineVMRCE, Degrade: interp.EngineVMOpt, rewrite: rceThenOptimize},
	interp.EngineVMJit:  {Bytecode: interp.EngineVMRCE, JIT: true, Degrade: interp.EngineVMRCE},
	interp.EngineTiered: {Bytecode: interp.EngineVM, Degrade: interp.EngineVMRCE},
}

// Spec returns engine e's row: the zero row, which has no bytecode and
// degrades to the tree, for the tree engine and any engine without one.
func Spec(e interp.Engine) EngineSpec {
	if int(e) < len(engineTable) {
		return engineTable[e]
	}
	return EngineSpec{}
}

// Build compiles p and runs engine e's bytecode pipeline over it.
func Build(e interp.Engine, p *ir.Program) (*Program, error) {
	bc := Spec(e).Bytecode
	if bc == interp.EngineTree {
		return nil, fmt.Errorf("vm: engine %v has no bytecode pipeline", e)
	}
	vp, err := Compile(p)
	if err != nil {
		return nil, err
	}
	if rw := engineTable[bc].rewrite; rw != nil {
		vp = rw(vp)
	}
	return vp, nil
}

// Runner is a runnable program: a *Program, a *JITProgram, or one of
// the tier package's handles.
type Runner interface {
	Run(cfg interp.Config) (interp.Result, error)
}

// Executable returns what engine e runs its bytecode vp on when there
// is no warm-up to profile: the closure-compiled program for an engine
// that closure-compiles, vp itself otherwise. A contained closure
// compile failure degrades to the switch VM running the same bytecode,
// never to the tree.
func Executable(e interp.Engine, vp *Program) Runner {
	if Spec(e).JIT {
		if jp, err := JITCompile(vp, nil); err == nil {
			return jp
		}
	}
	return vp
}

// Every engine with a row registers the same way: build its bytecode,
// then run it. The tiered engine is registered by internal/vm/tier,
// which wraps this package.
func init() {
	for i, spec := range engineTable {
		e := interp.Engine(i)
		if spec.Bytecode == interp.EngineTree || e == interp.EngineTiered {
			continue
		}
		interp.RegisterEngine(e, func(p *ir.Program, cfg interp.Config) (interp.Result, error) {
			vp, err := Build(e, p)
			if err != nil {
				return interp.Result{}, err
			}
			return Executable(e, vp).Run(cfg)
		})
	}
}

// optimizeOrKeep is vmopt's rewrite: a contained optimizer failure (a
// panic surfacing as *guard.InternalError) keeps the unoptimized
// program. Optimizer correctness is pinned by opt_test.go, which calls
// Optimize and fails loudly.
func optimizeOrKeep(vp *Program) *Program {
	if ovp, err := Optimize(vp); err == nil {
		return ovp
	}
	return vp
}

// rceThenOptimize is vmrce's rewrite: the guard/deopt rewrite, then the
// vmopt pipeline. A contained RCE failure falls back to the plain
// lowering, a contained Optimize failure to the (possibly
// guard-rewritten) input.
func rceThenOptimize(vp *Program) *Program {
	if rp, err := RCE(vp); err == nil {
		vp = rp
	}
	return optimizeOrKeep(vp)
}
