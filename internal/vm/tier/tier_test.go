package tier_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/guard"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
	"nascent/internal/vm/tier"
)

// hair-trigger thresholds: the second run starts the promotion, so
// with a Settle after every run the third runs profiled on vmrce and
// the fourth on vmjit.
var fastTh = tier.Thresholds{Runs: 1, Instrs: ^uint64(0)}

func compileTiered(tb testing.TB, src string, th tier.Thresholds) *tier.Program {
	tb.Helper()
	cp, err := nascent.Compile(src, nascent.Options{BoundsChecks: true})
	if err != nil {
		tb.Fatal(err)
	}
	tp, err := tier.Compile(cp.IR, th)
	if err != nil {
		tb.Fatal(err)
	}
	return tp
}

// TestTieredSuiteIdentity pins the controller's core contract: every
// run of a program returns bit-identical observables no matter which
// tier serves it. Each suite program is run through the full
// vm → vmrce → vmjit lifecycle and every result is compared to the
// first.
func TestTieredSuiteIdentity(t *testing.T) {
	for _, p := range suite.Programs {
		tp := compileTiered(t, p.Source, fastTh)
		want, wantErr := tp.Run(interp.Config{})
		if wantErr != nil {
			t.Fatalf("%s: %v", p.Name, wantErr)
		}
		for i := 1; i < 6; i++ {
			tp.Settle() // let any pending promotion land so later runs exercise it
			got, err := tp.Run(interp.Config{})
			if err != nil {
				t.Fatalf("%s run %d (%s): %v", p.Name, i, tp.Snapshot().Tier, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d diverged at tier %s:\n got %+v\nwant %+v",
					p.Name, i, tp.Snapshot().Tier, got, want)
			}
		}
		if snap := tp.Snapshot(); snap.Tier != tier.TierVMJit {
			t.Fatalf("%s: expected top tier after warm runs, at %q (%+v)", p.Name, snap.Tier, snap)
		}
	}
}

// TestPromotionLifecycle pins the state machine: tier transitions
// happen at the configured run counts, in the background, with the
// counters evalpool metrics will export.
func TestPromotionLifecycle(t *testing.T) {
	tp := compileTiered(t, suite.Programs[0].Source, fastTh)

	if snap := tp.Snapshot(); snap.Tier != tier.TierVM || snap.Runs != 0 {
		t.Fatalf("fresh program not at vm tier: %+v", snap)
	}

	// Run 1 executes at vm; afterwards runs=1 >= Runs.
	if _, err := tp.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	// Run 2's entry starts the background vmrce promotion, but run 2
	// itself must not block on it: it executes at vm. Settle, then the
	// next run is the profiled vmrce run.
	if _, err := tp.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	tp.Settle()
	if snap := tp.Snapshot(); snap.Tier != tier.TierVMRCE || snap.Promotions != 1 || snap.ProfiledRuns != 0 {
		t.Fatalf("after settle: %+v, want tier vmrce, 1 promotion, no profiled run", snap)
	}

	// Keep running until the profiled vmrce run lands and the jit
	// promotion completes.
	for i := 0; i < 5; i++ {
		if _, err := tp.Run(interp.Config{}); err != nil {
			t.Fatal(err)
		}
		tp.Settle()
	}
	snap := tp.Snapshot()
	if snap.Tier != tier.TierVMJit {
		t.Fatalf("never reached vmjit: %+v", snap)
	}
	if snap.Promotions != 2 {
		t.Fatalf("promotions = %d, want 2 (vm→vmrce, vmrce→vmjit): %+v", snap.Promotions, snap)
	}
	if snap.ProfiledRuns != 1 {
		t.Fatalf("profiled runs = %d, want the one vmrce run: %+v", snap.ProfiledRuns, snap)
	}
	if snap.Runs != 7 || snap.Demotions != 0 {
		t.Fatalf("counter mismatch: %+v", snap)
	}
}

// TestConcurrentRuns runs one tiered program from several goroutines
// at once across both promotions: every run returns the first run's
// observables, and each promotion happens once.
func TestConcurrentRuns(t *testing.T) {
	tp := compileTiered(t, suite.Programs[0].Source, fastTh)
	want, err := tp.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := tp.Run(interp.Config{})
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent run diverged: %v\n got %+v\nwant %+v", err, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	settle(t, "concurrent", tp)
	if s := tp.Snapshot(); s.Promotions != 2 || s.ProfiledRuns != 1 || s.Demotions != 0 || s.Runs < 33 {
		t.Fatalf("after concurrent runs: %+v, want 2 promotions, 1 profiled run, no demotion, >= 33 runs", s)
	}
}

// TestRunOnceStaysCold pins that a single run never recompiles: the
// tiering engine must add zero background work for one-shot programs.
func TestRunOnceStaysCold(t *testing.T) {
	tp := compileTiered(t, suite.Programs[0].Source, fastTh)
	if _, err := tp.Run(interp.Config{}); err != nil {
		t.Fatal(err)
	}
	tp.Settle()
	snap := tp.Snapshot()
	if snap.Tier != tier.TierVM || snap.Promotions != 0 {
		t.Fatalf("run-once program left the cold tier: %+v", snap)
	}
}

// TestPromoteChaosFail pins the tier.promote.fail containment: a
// failed background promotion tombstones the target tier, the program
// keeps serving identical results where it is, and nothing surfaces to
// callers.
func TestPromoteChaosFail(t *testing.T) {
	defer chaos.Disable()
	chaos.Enable(chaos.Spec{Seed: 1, Rate: 1, Site: chaos.SiteTierPromote})

	tp := compileTiered(t, suite.Programs[0].Source, fastTh)
	want, err := tp.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := tp.Run(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged under failed promotion:\n got %+v\nwant %+v", i, got, want)
		}
		tp.Settle()
	}
	snap := tp.Snapshot()
	if snap.Tier != tier.TierVM {
		t.Fatalf("promotion succeeded under tier.promote.fail: %+v", snap)
	}
	if snap.Promotions != 0 {
		t.Fatalf("promotions counted despite chaos failure: %+v", snap)
	}
}

// TestJitDemotion pins the degrade path: when a vmjit-tier run dies
// with a contained internal error, the controller tombstones the jit
// and transparently re-executes on the best switch-VM tier (vmrce) —
// and the error the caller sees is exactly what that tier reports for
// the same run.
func TestJitDemotion(t *testing.T) {
	tp := compileTiered(t, suite.Programs[0].Source, fastTh)
	// Warm to the top tier first, without chaos.
	for i := 0; i < 6; i++ {
		if _, err := tp.Run(interp.Config{}); err != nil {
			t.Fatal(err)
		}
		tp.Settle()
	}
	if got := tp.Snapshot().Tier; got != tier.TierVMJit {
		t.Fatalf("warmup never reached vmjit: %q", got)
	}

	// vm.poll.panic fires identically in the jit and the switch VM, so
	// the demotion replay hits the same contained panic — callers see
	// the vmrce error, tier state records the demotion.
	defer chaos.Disable()
	chaos.Enable(chaos.Spec{Seed: 7, Rate: 1, Site: chaos.SiteVMPanic})
	_, err := tp.Run(interp.Config{})
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("expected contained internal error from poll panic, got %v", err)
	}
	snap := tp.Snapshot()
	if snap.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1: %+v", snap.Demotions, snap)
	}
	if snap.Tier != tier.TierVMRCE {
		t.Fatalf("after demotion tier = %q, want vmrce: %+v", snap.Tier, snap)
	}

	// With chaos off the program keeps serving correct results at the
	// demoted tier, and the tombstone holds — no re-promotion.
	chaos.Disable()
	want, err := tp.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tp.Run(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tp.Settle()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-demotion runs diverged:\n got %+v\nwant %+v", got, want)
	}
	if s := tp.Snapshot(); s.Tier != tier.TierVMRCE {
		t.Fatalf("tombstoned jit came back: %+v", s)
	}
}

// TestEngineTiered pins the engine registration: interp.Run with
// Engine tiered returns the same observables as the reference tree
// engine.
func TestEngineTiered(t *testing.T) {
	for _, p := range suite.Programs[:3] {
		cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.Run(cp.IR, interp.Config{Engine: interp.EngineTree})
		if err != nil {
			t.Fatal(err)
		}
		got, err := interp.Run(cp.IR, interp.Config{Engine: interp.EngineTiered})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tiered engine diverged from tree:\n got %+v\nwant %+v", p.Name, got, want)
		}
	}
}

// settle runs h, settling after every run, until it serves on the jit.
func settle(tb testing.TB, name string, h tier.Handle) {
	tb.Helper()
	for runs := 0; h.Snapshot().Tier != tier.TierVMJit; runs++ {
		if runs == 50 {
			tb.Fatalf("%s: not at vmjit after %d runs: %+v", name, runs, h.Snapshot())
		}
		if _, err := h.Run(interp.Config{}); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		h.Settle()
	}
}

// TestSettledTopTierMatchesVMJit pins that a settled tiered program
// runs the vmjit engine's closures: for every suite program under the
// naive and ALL schemes, the jit it settles on has the same static
// output (JITStats, fusion sites included) as a JitHandle's over
// vm.Build(EngineVMRCE). Both compile from the dispatch profile of
// one vmrce run, so the comparison is exact and uses no wall clock.
func TestSettledTopTierMatchesVMJit(t *testing.T) {
	for _, p := range suite.Programs {
		for _, scheme := range []nascent.Scheme{nascent.Naive, nascent.ALL} {
			name := p.Name + "/" + scheme.String()
			cp, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			tp, err := tier.Compile(cp.IR, tier.Thresholds{})
			if err != nil {
				t.Fatal(err)
			}
			rp, err := vm.Build(interp.EngineVMRCE, cp.IR)
			if err != nil {
				t.Fatal(err)
			}
			jh := tier.NewHandle(interp.EngineVMJit, rp).(tier.Handle)
			settle(t, name+" tiered", tp)
			settle(t, name+" vmjit", jh)
			got, ok := tier.JITStats(tp)
			if !ok {
				t.Fatalf("%s: tiered settled without a jit", name)
			}
			want, ok := tier.JITStats(jh)
			if !ok {
				t.Fatalf("%s: vmjit settled without a jit", name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: tiered jit differs from vmjit's:\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
}

// TestHandleSteadyStateAllocs pins the run-hit path's allocation
// ceiling: a settled tiered program and a settled JitHandle stay at
// the closure tier's ~1 allocation per run (the output string). The
// ceiling is TestEngineSteadyStateAllocs': loose enough for runtime
// and race-detector noise, but it fails hard if per-run allocation of
// a machine or its frames regresses.
func TestHandleSteadyStateAllocs(t *testing.T) {
	const ceiling = 8.0
	sp, err := suite.Get("qcd")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := nascent.Compile(sp.Source, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := tier.Compile(cp.IR, tier.Thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := vm.Build(interp.EngineVMRCE, cp.IR)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    tier.Handle
	}{{"tiered", tp}, {"vmjit", tier.NewHandle(interp.EngineVMJit, rp).(tier.Handle)}} {
		settle(t, c.name, c.h)
		n := testing.AllocsPerRun(20, func() {
			if _, err := c.h.Run(interp.Config{}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if n > ceiling {
			t.Errorf("%s: %.1f allocs/run in steady state, want <= %.0f", c.name, n, ceiling)
		}
		t.Logf("%s: %.1f allocs/run", c.name, n)
	}
}
