package fleet

import (
	"fmt"
	"os/exec"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/progcache"
	"nascent/internal/vm/tier"
)

// TestProgramStateIsBounded resolves tiers for and encodes more
// distinct programs than the coordinator's per-program cache holds: at
// most capacity entries stay resident, and an evicted program's
// tiered run count goes with it, so it restarts at the cold tier.
func TestProgramStateIsBounded(t *testing.T) {
	f, err := New(Config{Workers: 1, HeartbeatInterval: -1, Command: func(int) *exec.Cmd { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const capacity, n = 4, 12
	f.progs = evalpool.NewCache[progcache.Key, *progState](capacity)

	job := func(k int) *evalpool.Job {
		return &evalpool.Job{
			Name:   fmt.Sprintf("p%d", k),
			Source: fmt.Sprintf("program p\n  real a(4)\n  a(2) = 1.0\n  print %d\nend\n", k),
			Opts:   nascent.Options{BoundsChecks: true},
			Run:    nascent.RunConfig{Engine: nascent.EngineTiered},
		}
	}
	for k := 0; k < n; k++ {
		j := job(k)
		prog, err := nascent.Compile(j.Source, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.encoded(j, prog, nascent.EngineVMRCE); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 1<<6; r++ {
			f.resolveTier(j)
		}
		if st := f.progs.Stats(); st.Entries > capacity {
			t.Fatalf("after %d programs %d entries are resident, capacity %d", k+1, st.Entries, capacity)
		}
	}
	if st := f.progs.Stats(); st.Entries != capacity || st.Evictions != n-capacity {
		t.Errorf("stats %+v; want %d entries, %d evictions", st, capacity, n-capacity)
	}
	// The last program is resident and warm; the first was evicted and
	// starts cold again.
	if got := f.resolveTier(job(n - 1)); got == tier.TierVM {
		t.Errorf("resident program resolved cold tier %q after %d runs", got, 1<<6)
	}
	if got := f.resolveTier(job(0)); got != tier.TierVM {
		t.Errorf("evicted program resolved tier %q, want the cold tier %q (run count dropped with its entry)", got, tier.TierVM)
	}
}
