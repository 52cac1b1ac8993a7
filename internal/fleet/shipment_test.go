package fleet

import (
	"bytes"
	"os/exec"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/ir"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
	"nascent/internal/vm/tier"
)

// TestShipmentBytecode pins which bytecode a job ships for every engine
// and resolved tier: the base lowering for vm and a cold tiered
// program, the optimized stream for vmopt, and the guard/deopt stream
// for vmrce, vmjit, which closure-compiles it, and a hot tiered
// program. A tree job ships
// source only, and only vmjit and tiered jobs carry a tier. The
// pipelines are spelled out here, not read from the
// engine table.
func TestShipmentBytecode(t *testing.T) {
	f, err := New(Config{Workers: 1, HeartbeatInterval: -1, Command: func(int) *exec.Cmd { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sp, err := suite.Get("trfd")
	if err != nil {
		t.Fatal(err)
	}
	opts := nascent.Options{BoundsChecks: true, Scheme: nascent.LLS}
	prog, err := nascent.Compile(sp.Source, opts)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(build func(*ir.Program) (*vm.Program, error)) []byte {
		vp, err := build(prog.IR)
		if err != nil {
			t.Fatal(err)
		}
		return progio.Encode(vp)
	}
	base, opt, rce := enc(vm.Compile), enc(vm.CompileOptimized), enc(vm.CompileRCE)
	if bytes.Equal(base, opt) || bytes.Equal(opt, rce) {
		t.Fatal("the three pipelines encode alike; the test cannot tell them apart")
	}
	for _, tc := range []struct {
		engine, tier string
		want         []byte
	}{
		{"tree", "", nil},
		{"vm", "", base},
		{"vmopt", "", opt},
		{"vmrce", "", rce},
		{"vmjit", "vmjit", rce},
		{"tiered", "vm", base},
		{"tiered", "vmrce", rce},
		{"tiered", "vmjit", rce},
	} {
		e, err := nascent.ParseEngine(tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		job := &evalpool.Job{Name: "trfd", Source: sp.Source, Opts: opts, Run: nascent.RunConfig{Engine: e}}
		sh, err := f.buildShipment(job, &evalpool.Result{Prog: prog}, tc.tier)
		if err != nil {
			t.Fatalf("%s@%s: %v", tc.engine, tc.tier, err)
		}
		var got []byte
		if sh.prog != nil {
			got = sh.prog.Program
			if sh.prog.Tier != tc.tier {
				t.Errorf("%s@%s: shipped tier %q", tc.engine, tc.tier, sh.prog.Tier)
			}
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s@%s: shipped %d bytes, want %d", tc.engine, tc.tier, len(got), len(tc.want))
		}
	}
	// Only vmjit and tiered jobs carry a tier; vmjit's is always its own.
	for engine, want := range map[string]string{"tree": "", "vm": "", "vmopt": "", "vmrce": "", "vmjit": "vmjit", "tiered": "vm"} {
		e, err := nascent.ParseEngine(engine)
		if err != nil {
			t.Fatal(err)
		}
		job := &evalpool.Job{Name: "trfd", Source: sp.Source, Opts: opts, Run: nascent.RunConfig{Engine: e}}
		if got := f.resolveTier(job); got != want {
			t.Errorf("%s: resolved tier %q, want %q", engine, got, want)
		}
	}
}

// TestResolveTierMatchesSettledProgram pins the fleet's tier decisions
// to the in-process controller's: over run counts 0..6 a tiered job
// resolves to the tier a settled tier.Program reports at each run's
// entry, the ladder vm, vm, vm, vmrce, vmjit, ... The program is small
// enough that the instruction arm, which the fleet does not follow,
// never fires.
func TestResolveTierMatchesSettledProgram(t *testing.T) {
	f, err := New(Config{Workers: 1, HeartbeatInterval: -1, Command: func(int) *exec.Cmd { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := "program p\n  real a(4)\n  a(2) = 1.0\n  print a(2)\nend\n"
	opts := nascent.Options{BoundsChecks: true}
	prog, err := nascent.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := vm.Compile(prog.IR)
	if err != nil {
		t.Fatal(err)
	}
	tp := tier.FromBytecode(vp, tier.Thresholds{})
	job := &evalpool.Job{Name: "p", Source: src, Opts: opts, Run: nascent.RunConfig{Engine: nascent.EngineTiered}}
	want := []string{tier.TierVM, tier.TierVM, tier.TierVM, tier.TierVMRCE, tier.TierVMJit, tier.TierVMJit, tier.TierVMJit}
	for run, ladder := range want {
		inProcess := tp.Snapshot().Tier
		if got := f.resolveTier(job); got != inProcess || got != ladder {
			t.Errorf("run %d: fleet resolved %q, settled in-process program at %q, want %q", run, got, inProcess, ladder)
		}
		if _, err := tp.Run(nascent.RunConfig{}); err != nil {
			t.Fatal(err)
		}
		tp.Settle()
	}
}
