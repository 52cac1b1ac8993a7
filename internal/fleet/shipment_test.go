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
)

// TestShipmentBytecode pins which bytecode a job ships for every engine
// and resolved tier: the base lowering for vm and a cold tiered
// program, the optimized stream for vmopt, and the guard/deopt stream
// for vmrce and vmjit, which closure-compiles it. A tree job ships
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
		{"tiered", "vmopt", opt},
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
