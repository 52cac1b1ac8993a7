package evalpool_test

import (
	"fmt"
	"reflect"
	"testing"

	"nascent"
	"nascent/internal/chaos"
	"nascent/internal/conformance"
	"nascent/internal/evalpool"
	"nascent/internal/suite"
)

// observable is everything about a job result that the benchmark tables
// are built from. The determinism stress asserts it is identical at
// every worker count.
type observable struct {
	Name         string
	Err          string
	Instructions uint64
	Checks       uint64
	Output       string
	StaticChecks int
	Opt          nascent.OptReport
}

func observe(jobs []evalpool.Job, results []evalpool.Result) []observable {
	out := make([]observable, len(results))
	for i, r := range results {
		o := observable{Name: jobs[i].Name}
		if r.Err != nil {
			o.Err = r.Err.Error()
		}
		o.Instructions = r.Res.Instructions
		o.Checks = r.Res.Checks
		o.Output = r.Res.Output
		o.StaticChecks = r.StaticChecks
		if r.Opt != nil {
			o.Opt = *r.Opt
		}
		out[i] = o
	}
	return out
}

// suiteMatrix is the full evaluation grid of the paper's Tables 2–3:
// every suite program under naive plus every scheme × check kind.
func suiteMatrix() []evalpool.Job {
	var jobs []evalpool.Job
	for _, p := range suite.Programs {
		jobs = append(jobs, evalpool.Job{
			Name:     p.Name + "/naive",
			Source:   p.Source,
			Filename: p.Name + ".mf",
			Opts:     nascent.Options{BoundsChecks: true},
		})
		for _, sch := range nascent.OptimizedSchemes {
			for _, kind := range []nascent.CheckKind{nascent.PRX, nascent.INX} {
				jobs = append(jobs, evalpool.Job{
					Name:     fmt.Sprintf("%s/%v/%v", p.Name, sch, kind),
					Source:   p.Source,
					Filename: p.Name + ".mf",
					Opts:     nascent.Options{BoundsChecks: true, Scheme: sch, Kind: kind},
				})
			}
		}
	}
	return jobs
}

// TestDeterminismAcrossWorkerCounts runs the full suite job matrix at
// -jobs ∈ {1, 4, 16} and asserts the merged, ordered results are
// identical: completion order must never leak into the observables the
// tables are rendered from. Run under -race this is also the pool's
// data-race stress.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix stress in short mode")
	}
	jobs := suiteMatrix()

	var ref []observable
	for _, workers := range []int{1, 4, 16} {
		pool := evalpool.New(workers)
		got := observe(jobs, pool.Evaluate(jobs))
		for i, o := range got {
			if o.Err != "" {
				t.Fatalf("jobs=%d: %s: %s", workers, jobs[i].Name, o.Err)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Errorf("jobs=%d: job %s diverges from jobs=1:\n got %+v\nwant %+v",
					workers, jobs[i].Name, got[i], ref[i])
			}
		}
		if m := pool.Metrics(); m.Jobs != len(jobs) || m.Errors != 0 {
			t.Errorf("jobs=%d: metrics jobs=%d errors=%d, want %d/0", workers, m.Jobs, m.Errors, len(jobs))
		}
	}
}

// TestConformanceCorpusDeterministicAcrossJobs runs the conformance
// corpus through the supervised pool at jobs ∈ {1, 4, 16} with chaos
// off and asserts every pinned observable — instructions, checks,
// output, trap verdict — exactly, at every worker count. This is the
// corpus-level half of the chaos-off determinism guarantee (the
// golden-table half is TestChaosOffDeterminism in internal/report).
func TestConformanceCorpusDeterministicAcrossJobs(t *testing.T) {
	if chaos.Active() {
		t.Fatalf("chaos registry enabled (%s) — determinism test needs it off", chaos.SpecString())
	}
	jobs := make([]evalpool.Job, len(conformance.Corpus))
	for i, c := range conformance.Corpus {
		jobs[i] = evalpool.Job{
			Name:     c.Name,
			Source:   c.Src,
			Filename: c.Name + ".mf",
			Opts:     nascent.Options{BoundsChecks: true},
		}
	}
	for _, workers := range []int{1, 4, 16} {
		workers := workers
		t.Run(fmt.Sprintf("jobs=%d", workers), func(t *testing.T) {
			results := evalpool.New(workers).Evaluate(jobs)
			for i, c := range conformance.Corpus {
				r := results[i]
				if r.Err != nil {
					t.Errorf("%s: %v", c.Name, r.Err)
					continue
				}
				if r.Attempts != 1 {
					t.Errorf("%s: Attempts = %d, want 1 chaos-off", c.Name, r.Attempts)
				}
				res := r.Res
				if res.Instructions != c.Instr || res.Checks != c.Checks {
					t.Errorf("%s: instr/checks = %d/%d, want %d/%d",
						c.Name, res.Instructions, res.Checks, c.Instr, c.Checks)
				}
				if res.Output != c.Output {
					t.Errorf("%s: output = %q, want %q", c.Name, res.Output, c.Output)
				}
				if res.Trapped != c.Trapped {
					t.Errorf("%s: trapped = %v, want %v", c.Name, res.Trapped, c.Trapped)
				}
				if c.Trapped && res.TrapNote != c.TrapNote {
					t.Errorf("%s: trap note = %q, want %q", c.Name, res.TrapNote, c.TrapNote)
				}
			}
		})
	}
}

// TestMemoizationSharesSuiteFrontends pins the intended artifact
// sharing on the real matrix: 150 jobs over 10 programs must compile
// exactly 10 front ends.
func TestMemoizationSharesSuiteFrontends(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix stress in short mode")
	}
	jobs := suiteMatrix()
	pool := evalpool.New(8)
	for i, r := range pool.Evaluate(jobs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Name, r.Err)
		}
	}
	m := pool.Metrics()
	if m.FrontendCompiles != len(suite.Programs) {
		t.Errorf("frontend compiles = %d, want %d", m.FrontendCompiles, len(suite.Programs))
	}
	if want := len(jobs) - len(suite.Programs); m.FrontendHits != want {
		t.Errorf("frontend hits = %d, want %d", m.FrontendHits, want)
	}
}
