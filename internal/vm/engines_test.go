package vm_test

import (
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/interp"
	"nascent/internal/suite"
	"nascent/internal/vm"
	"nascent/internal/vm/tier"
)

// TestEngineTable checks the engine table against the engine registry.
// Every non-tree engine has a row, and the row is registered with
// interp: a run through interp.Run succeeds instead of failing as "not
// linked". Each row's pipeline and run handle (vm.Build, then
// tier.NewHandle, warmed past every promotion point) give the tree's
// observables on a suite program. The Bytecode and Degrade columns
// point at rows that exist, and every degrade ladder ends at the tree.
func TestEngineTable(t *testing.T) {
	sp, err := suite.Get("trfd")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := nascent.Compile(sp.Source, nascent.Options{BoundsChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.Run(cp.IR, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if spec := vm.Spec(interp.EngineTree); spec.Bytecode != interp.EngineTree || spec.JIT || spec.Degrade != interp.EngineTree {
		t.Errorf("the tree engine has a row: %+v", spec)
	}
	engines := interp.AllEngines()
	for _, e := range engines {
		if e == interp.EngineTree {
			continue
		}
		spec := vm.Spec(e)
		if spec.Bytecode == interp.EngineTree {
			t.Errorf("%v: no row in the engine table", e)
			continue
		}
		if got, err := interp.Run(cp.IR, interp.Config{Engine: e}); err != nil {
			t.Errorf("%v: interp.Run: %v", e, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: interp.Run observables diverge from tree:\n got %+v\nwant %+v", e, got, want)
		}

		vp, err := vm.Build(e, cp.IR)
		if err != nil {
			t.Fatalf("%v: Build: %v", e, err)
		}
		h := tier.NewHandle(e, vp)
		for run := 0; run < 6; run++ {
			got, err := h.Run(interp.Config{})
			if err != nil {
				t.Fatalf("%v: handle run %d: %v", e, run, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: handle run %d observables diverge from tree:\n got %+v\nwant %+v", e, run, got, want)
			}
			if th, ok := h.(tier.Handle); ok {
				th.Settle()
			}
		}

		if vm.Spec(spec.Bytecode).Bytecode != spec.Bytecode {
			t.Errorf("%v: Bytecode column names %v, which does not build its own bytecode", e, spec.Bytecode)
		}
		d := e
		for steps := 0; d != interp.EngineTree; steps++ {
			if steps == len(engines) {
				t.Errorf("%v: degrade ladder does not reach the tree", e)
				break
			}
			ds := vm.Spec(d)
			if ds.Bytecode == interp.EngineTree {
				t.Errorf("%v: degrade ladder passes %v, which has no row", e, d)
				break
			}
			d = ds.Degrade
		}
	}
}
