package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/testutil"
	"nascent/internal/vm"
)

// jitSuite closure-compiles the naive suite's vmopt bytecode with a
// real profile: one RunDispatch pass per program collects the digram
// matrix the fuser selects from. The vmjit engine compiles vmrce
// bytecode instead (ownJitSuite), so this is the jit's input only when
// RCE fails and the failure is contained; its checked loop bodies
// keep the fuser's check-carrying paths under test.
func jitSuite(tb testing.TB) []*vm.JITProgram {
	progs := compileSuite(tb, true)
	var out []*vm.JITProgram
	for _, vp := range progs {
		_, ds, err := vp.RunDispatch(interp.Config{})
		if err != nil {
			tb.Fatal(err)
		}
		jp, err := vm.JITCompile(vp, &ds)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, jp)
	}
	return out
}

// ownJit is one program's vmjit input: the bytecode the vmjit engine
// closure-compiles, vm.Build(EngineVMJit), and the jit compiled from
// that bytecode's own dispatch profile, which is what a vmjit handle
// and a settled tiered program run.
type ownJit struct {
	name string
	vp   *vm.Program
	jp   *vm.JITProgram
}

// ownJitSuite builds ownJit for every suite program under the naive
// and ALL schemes.
func ownJitSuite(tb testing.TB) []ownJit {
	var out []ownJit
	for _, p := range suite.Programs {
		for _, scheme := range []nascent.Scheme{nascent.Naive, nascent.ALL} {
			name := p.Name + "/" + scheme.String()
			cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: scheme})
			if err != nil {
				tb.Fatal(err)
			}
			vp, err := vm.Build(interp.EngineVMJit, cp.IR)
			if err != nil {
				tb.Fatal(err)
			}
			_, ds, err := vp.RunDispatch(interp.Config{})
			if err != nil {
				tb.Fatalf("%s: profile run: %v", name, err)
			}
			jp, err := vm.JITCompile(vp, &ds)
			if err != nil {
				tb.Fatalf("%s: JITCompile: %v", name, err)
			}
			out = append(out, ownJit{name: name, vp: vp, jp: jp})
		}
	}
	return out
}

// TestJITSuiteIdentity pins the closure tier's observable contract:
// for every suite program, vmjit (profiled and cold, over optimized
// and unoptimized bytecode) must produce bit-identical results to the
// switch VM.
func TestJITSuiteIdentity(t *testing.T) {
	for _, opt := range []bool{false, true} {
		progs := compileSuite(t, opt)
		for i, vp := range progs {
			want, wantErr := vp.Run(interp.Config{})

			// Cold jit: no profile, plain chains.
			jp, err := vm.JITCompile(vp, nil)
			if err != nil {
				t.Fatalf("prog %d opt=%v: JITCompile: %v", i, opt, err)
			}
			got, gotErr := jp.Run(interp.Config{})
			if !reflect.DeepEqual(got, want) || !errors.Is(gotErr, wantErr) && (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prog %d opt=%v cold jit diverged:\n got %+v (%v)\nwant %+v (%v)", i, opt, got, gotErr, want, wantErr)
			}

			// Profiled jit: fused superinstructions active.
			_, ds, err := vp.RunDispatch(interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			jp, err = vm.JITCompile(vp, &ds)
			if err != nil {
				t.Fatalf("prog %d opt=%v: JITCompile(prof): %v", i, opt, err)
			}
			got, gotErr = jp.Run(interp.Config{})
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("prog %d opt=%v profiled jit diverged:\n got %+v (%v)\nwant %+v (%v)", i, opt, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestJITBudgetIdentity pins that budget errors and partial counters
// match the switch VM exactly when the instruction budget bites
// mid-run, across a sweep of budgets that land inside fused closures'
// deferred charges as well as central ones.
func TestJITBudgetIdentity(t *testing.T) {
	progs := compileSuite(t, true)
	jits := jitSuite(t)
	for i, vp := range progs {
		for _, budget := range []uint64{1, 7, 100, 5000, 123457} {
			cfg := interp.Config{MaxInstructions: budget}
			want, wantErr := vp.Run(cfg)
			got, gotErr := jits[i].Run(cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prog %d budget %d: result diverged:\n got %+v\nwant %+v", i, budget, got, want)
			}
			if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("prog %d budget %d: err diverged: got %v want %v", i, budget, gotErr, wantErr)
			}
		}
	}
}

// TestJITOwnBytecodeIdentity runs the fused closures the vmjit engine
// actually builds under budgets and on the deopt path: for every
// suite program under naive and ALL, the profiled jit over
// vm.Build(EngineVMJit) must return the switch VM's Result and error
// on the same bytecode, first under a budget sweep, then with every
// range guard chaos-forced to fail. The reference is that bytecode,
// not the base vm's, because vmrce has documented counter-cadence
// latitude at budget exits.
func TestJITOwnBytecodeIdentity(t *testing.T) {
	progs := ownJitSuite(t)
	same := func(pr ownJit, what string, cfg interp.Config) {
		t.Helper()
		want, wantErr := pr.vp.Run(cfg)
		got, gotErr := pr.jp.Run(cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s budget %d: result diverged:\n got %+v\nwant %+v", pr.name, what, cfg.MaxInstructions, got, want)
		}
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %s budget %d: err diverged: got %v want %v", pr.name, what, cfg.MaxInstructions, gotErr, wantErr)
		}
	}
	fulls := make([]uint64, len(progs))
	for i, pr := range progs {
		full, err := pr.vp.Run(interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		fulls[i] = full.Instructions
		for _, budget := range []uint64{0, 1, 7, 100, 5000, 123457, full.Instructions / 2, full.Instructions - 1} {
			same(pr, "fast path", interp.Config{MaxInstructions: budget})
		}
	}

	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteRCEGuardFail})
	t.Cleanup(chaos.Disable)
	for i, pr := range progs {
		for _, budget := range []uint64{0, fulls[i] / 2, fulls[i] - 1} {
			same(pr, "forced deopt", interp.Config{MaxInstructions: budget})
		}
	}
}

// TestJITFusionCoverage pins profile-guided selection: with the
// suite's own profile, the fuser must actually fuse — every hot
// adjacent digram with an available combinator becomes a
// superinstruction, and the dominant loop-latch pattern is among them.
// On the bytecode vmjit runs, the selection is pinned exactly.
func TestJITFusionCoverage(t *testing.T) {
	jits := jitSuite(t)
	var fused, hot, runs int
	latch := 0
	for _, jp := range jits {
		st := jp.Stats()
		fused += st.FusedDigrams + st.FusedTrigrams + st.FusedRuns
		runs += st.FusedRuns
		hot += st.HotSites
		for name, n := range st.Pairs {
			if name == "movi+incbrlei" {
				latch += n
			}
		}
	}
	if fused == 0 {
		t.Fatal("profiled jit compiled zero superinstructions on the suite")
	}
	if runs == 0 {
		t.Fatal("no straight-line run compiled despite the suite's long hot chains")
	}
	if latch == 0 {
		t.Fatal("movi+incbrlei loop latch not fused despite being the suite's hottest simple digram")
	}
	// Selection coverage: at least half the profile-hot sites must
	// have a combinator. Ratchet up as combinators are added.
	if 2*fused < hot {
		t.Fatalf("fusion coverage too low: %d fused of %d hot sites", fused, hot)
	}

	// vmjit's own bytecode, suite × {naive, ALL}. These sums are exact
	// functions of (program, scheme, bytecode pipeline, fuser), so a
	// change that moves them changes what vmjit and settled tiered
	// programs execute. Rebase them only together with a CHANGES.md
	// note that names the change and its measured effect.
	var own vm.JITStats
	for _, pr := range ownJitSuite(t) {
		st := pr.jp.Stats()
		own.FusedDigrams += st.FusedDigrams
		own.FusedTrigrams += st.FusedTrigrams
		own.FusedRuns += st.FusedRuns
		own.HotSites += st.HotSites
	}
	got := [4]int{own.FusedDigrams, own.FusedTrigrams, own.FusedRuns, own.HotSites}
	if want := [4]int{406, 120, 291, 1738}; got != want {
		t.Fatalf("vmjit selection moved: digrams/trigrams/runs/hot = %v, want %v", got, want)
	}
}

// TestJITSteadyStateAllocs pins the closure tier's machine reuse:
// repeated runs must stay at 2 allocations per run, as measured. It
// cannot hold under -race, whose sync.Pool drops one Put in four on
// purpose, so getMach builds fresh machines; the ceiling is enforced
// by normal builds only.
func TestJITSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector's sync.Pool drops Put items, so machines are rebuilt")
	}
	jits := jitSuite(t)
	jp := jits[0]
	if _, err := jp.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := jp.Run(interp.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("jit steady state allocates %.1f allocs/run, want <= 2", avg)
	}
}

func BenchmarkSuiteVMJit(b *testing.B) {
	jits := jitSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, jp := range jits {
			if _, err := jp.Run(interp.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
