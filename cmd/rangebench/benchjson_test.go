package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nascent/internal/suite"
	"nascent/internal/vm/tier"
)

// TestPrepareWarmsToTopTier checks that prepare hands the timer every
// handle that warms up in the background (vmjit's and tiered's) at its
// top tier, so the -benchjson rows of both measure the jit.
func TestPrepareWarmsToTopTier(t *testing.T) {
	for _, p := range suite.Programs {
		bp, err := prepare(p.Name, p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		warming := 0
		for name, r := range bp.run {
			h, ok := r.(tier.Handle)
			if !ok {
				continue
			}
			warming++
			if s := h.Snapshot(); s.Tier != tier.TierVMJit {
				t.Errorf("%s/%s: prepared at tier %s, want %s (%+v)", p.Name, name, s.Tier, tier.TierVMJit, s)
			}
		}
		if warming != 2 {
			t.Errorf("%s: %d handles warm up in the background, want 2 (vmjit, tiered)", p.Name, warming)
		}
	}
}

// TestBenchDiffCommittedDocs round-trips two committed BENCH documents
// through -benchdiff: every engine row and every per-program row they
// share is compared, the CI floor passes, and a floor above every
// ratio flags each row and exits 1.
func TestBenchDiffCommittedDocs(t *testing.T) {
	oldPath := filepath.Join("..", "..", "BENCH_vmopt.json")
	newPath := filepath.Join("..", "..", "BENCH_vmrce.json")
	oldDoc, err := readBenchDoc(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := readBenchDoc(newPath)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	rows, regressions := diffBench(&b, oldDoc, newDoc, 0.4)
	want := 0
	for _, r := range oldDoc.Results {
		want += 1 + len(r.Programs)
	}
	if rows != want || regressions != 0 {
		t.Fatalf("floor 0.4: %d rows / %d regressions, want %d / 0\n%s", rows, regressions, want, b.String())
	}
	for _, label := range []string{"vmrce ", "vmrce/mdg ", "tiered/simple "} {
		if !strings.Contains(b.String(), "\n"+label) {
			t.Errorf("output lacks row %q:\n%s", label, b.String())
		}
	}

	b.Reset()
	if _, regressions := diffBench(&b, oldDoc, newDoc, 100); regressions != want {
		t.Errorf("floor 100: %d regressions, want %d", regressions, want)
	}
	if got := strings.Count(b.String(), "REGRESSION"); got != want {
		t.Errorf("floor 100: %d REGRESSION marks, want %d", got, want)
	}

	// A document against itself is 1.00x on every row.
	b.Reset()
	if rows, regressions := diffBench(&b, newDoc, newDoc, 1); rows != want || regressions != 0 {
		t.Errorf("self diff: %d rows / %d regressions, want %d / 0", rows, regressions, want)
	}

	if code := runBenchDiff(oldPath, newPath, 0.4); code != 0 {
		t.Errorf("runBenchDiff floor 0.4 exit = %d, want 0", code)
	}
	if code := runBenchDiff(oldPath, newPath, 100); code != 1 {
		t.Errorf("runBenchDiff floor 100 exit = %d, want 1", code)
	}
}

// TestBenchDiffUnusableInput pins exit 2 for a missing document, a
// malformed one, and two documents that share no row.
func TestBenchDiffUnusableInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join("..", "..", "BENCH_vmrce.json")
	disjoint := filepath.Join("..", "..", "BENCH_vm.json") // rows named "tree/jobs=1", ...
	for _, tc := range []struct{ name, oldPath, newPath string }{
		{"missing", filepath.Join(dir, "absent.json"), good},
		{"malformed", good, bad},
		{"disjoint", disjoint, good},
	} {
		if code := runBenchDiff(tc.oldPath, tc.newPath, 0.4); code != 2 {
			t.Errorf("%s: exit = %d, want 2", tc.name, code)
		}
	}
}
