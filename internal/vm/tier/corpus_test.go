package tier_test

import (
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/vm/tier"
)

// TestCorpusTopTiers pins the conformance corpus observables — exact
// instruction counts, check counts, outputs, and trap fields — under
// the closure-compiled jit and the tiering controller, extending the
// per-engine corpus pins of internal/interp (tree) and internal/vm
// (vm, vmopt) to the two new engines. The tiered run is repeated past
// its promotion and the jit's so the pinned observables cover every
// tier the controller can serve a run from, not just the cold one.
func TestCorpusTopTiers(t *testing.T) {
	for _, c := range conformance.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			check := func(engine string, res nascent.RunResult) {
				t.Helper()
				if res.Instructions != c.Instr {
					t.Errorf("%s: instructions = %d, want %d", engine, res.Instructions, c.Instr)
				}
				if res.Checks != c.Checks {
					t.Errorf("%s: checks = %d, want %d", engine, res.Checks, c.Checks)
				}
				if res.Output != c.Output {
					t.Errorf("%s: output = %q, want %q", engine, res.Output, c.Output)
				}
				if res.Trapped != c.Trapped {
					t.Fatalf("%s: trapped = %v, want %v (%s)", engine, res.Trapped, c.Trapped, res.TrapNote)
				}
				if c.Trapped {
					if res.TrapNote != c.TrapNote {
						t.Errorf("%s: trap note = %q, want %q", engine, res.TrapNote, c.TrapNote)
					}
					if string(res.TrapClass) != c.TrapClass {
						t.Errorf("%s: trap class = %q, want %q", engine, res.TrapClass, c.TrapClass)
					}
					if res.TrapPos != c.TrapPos {
						t.Errorf("%s: trap pos = %s, want %s", engine, res.TrapPos, c.TrapPos)
					}
				}
			}

			p, err := nascent.Compile(c.Src, nascent.Options{Filename: c.Name + ".mf", BoundsChecks: true})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			res, err := p.RunWith(nascent.RunConfig{Engine: nascent.EngineVMJit})
			if err != nil {
				t.Fatalf("vmjit run: %v", err)
			}
			check("vmjit", res)

			// Settle after every run so each background promotion lands
			// before the next entry decision: the sweep then
			// deterministically serves runs from vm, vmrce, and vmjit.
			tp := compileTiered(t, c.Src, fastTh)
			for i := 0; i < 6; i++ {
				res, err := tp.Run(nascent.RunConfig{})
				if err != nil {
					t.Fatalf("tiered run %d: %v", i, err)
				}
				tp.Settle()
				check("tiered", res)
			}
			if got := tp.Snapshot().Tier; got != tier.TierVMJit {
				t.Fatalf("tiered program ended at tier %s, want %s", got, tier.TierVMJit)
			}
		})
	}
}
