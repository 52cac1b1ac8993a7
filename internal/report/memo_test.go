package report

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/suite"
)

// TestTablesRepeatOnOnePool renders Tables 1 and 2 twice on one pool,
// as nascentd's /report does across requests. The second pass is
// served from the program cache: every run job is a hit that compiles
// nothing, and the text is byte-identical to the first pass and to
// the golden file.
func TestTablesRepeatOnOnePool(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	pool := evalpool.New(2)
	r := NewOnPool(pool, Config{Engine: nascent.EngineVMRCE})
	for _, tc := range []struct {
		n       int
		f       func() (string, error)
		runJobs int // jobs per pass that run through the program cache
	}{
		{1, r.Table1, 2 * len(suite.Programs)}, // the shape job is SkipRun
		{2, r.Table2, len(suite.Programs) * (1 + len(table2Specs()))},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("table%d.txt", tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		first, err := tc.f()
		if err != nil {
			t.Fatalf("table %d, first pass: %v", tc.n, err)
		}
		before := pool.MetricsSnapshot()
		second, err := tc.f()
		if err != nil {
			t.Fatalf("table %d, second pass: %v", tc.n, err)
		}
		after := pool.MetricsSnapshot()
		if first != string(want) || second != first {
			t.Errorf("table %d drifted across passes:\n--- first ---\n%s\n--- second ---\n%s\n--- golden ---\n%s",
				tc.n, first, second, want)
		}
		if got := after.BytecodeHits - before.BytecodeHits; got != tc.runJobs {
			t.Errorf("table %d second pass: %d bytecode hits, want %d", tc.n, got, tc.runJobs)
		}
		if got := after.BytecodeCompiles - before.BytecodeCompiles; got != 0 {
			t.Errorf("table %d second pass: %d bytecode compiles, want 0", tc.n, got)
		}
		if tc.n == 2 && after.CompileTimeNS != before.CompileTimeNS {
			t.Errorf("table 2 second pass added %d ns of compile time, want 0", after.CompileTimeNS-before.CompileTimeNS)
		}
	}
}

// TestTimedGridFreshPoolMisses pins the timing columns on a bytecode
// engine. A timed Runner built by New owns a fresh pool, so every Table
// 2 job fills its own program cache entry and is charged its own
// optimizer (Range) and whole-compile (Nascent) time; none is a hit.
func TestTimedGridFreshPoolMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in short mode")
	}
	r := New(Config{Jobs: 2, Timings: true, Engine: nascent.EngineVMRCE})
	specs := table2Specs()
	rows := r.grid(specs)
	for i, row := range rows {
		for j, cell := range row.Cells {
			if cell.Err != nil {
				t.Fatalf("%s/%s: %v", specs[i].Label, suite.Programs[j].Name, cell.Err)
			}
			if cell.OptTime <= 0 || cell.TotalTime <= cell.OptTime {
				t.Errorf("%s/%v/%s: Range %s, Nascent %s; want 0 < Range < Nascent",
					specs[i].Label, specs[i].Kind, suite.Programs[j].Name, cell.OptTime, cell.TotalTime)
			}
		}
	}
	m := r.Metrics()
	if want := len(suite.Programs) * (1 + len(specs)); m.BytecodeCompiles != want || m.BytecodeHits != 0 {
		t.Errorf("fresh timed pool: %d bytecode compiles / %d hits, want %d / 0", m.BytecodeCompiles, m.BytecodeHits, want)
	}
}
