package evalpool_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nascent"
	"nascent/internal/evalpool"
	"nascent/internal/progcache"
)

// onEngine returns a copy of jobs set to run on eng.
func onEngine(jobs []evalpool.Job, eng nascent.Engine) []evalpool.Job {
	out := append([]evalpool.Job(nil), jobs...)
	for i := range out {
		out[i].Run.Engine = eng
	}
	return out
}

// TestWarmDiskGridDoesNoFrontendWork runs the Table 2 grid through two
// pools sharing one progcache directory. The second pool decodes every
// program from disk: it runs no front end, lowers nothing, returns no
// IR, and produces the first pool's observables exactly.
func TestWarmDiskGridDoesNoFrontendWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix warm start in short mode")
	}
	dir := t.TempDir()
	jobs := onEngine(suiteMatrix(), nascent.EngineVMRCE)
	open := func() *progcache.Cache {
		c, err := progcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	cold := evalpool.New(2)
	cold.SetDiskCache(open())
	want := observe(jobs, cold.Evaluate(jobs))
	if m := cold.Metrics(); m.BytecodeCompiles != len(jobs) || m.Errors != 0 {
		t.Fatalf("cold pool: %d bytecode compiles, %d errors; want %d, 0", m.BytecodeCompiles, m.Errors, len(jobs))
	}

	warm := evalpool.New(2)
	warm.SetDiskCache(open())
	results := warm.Evaluate(jobs)
	m := warm.Metrics()
	if m.FrontendCompiles != 0 || m.CompileTime != 0 || m.FrontendTime != 0 {
		t.Errorf("warm pool did front-end work: %d frontend compiles, frontend %s, compile %s",
			m.FrontendCompiles, m.FrontendTime, m.CompileTime)
	}
	if m.BytecodeDiskHits != len(jobs) || m.BytecodeCompiles != 0 {
		t.Errorf("warm pool: %d disk hits / %d compiles, want %d / 0", m.BytecodeDiskHits, m.BytecodeCompiles, len(jobs))
	}
	for i, r := range results {
		if r.Prog != nil || r.Lower != 0 || r.Optimize != 0 || !r.CacheHit {
			t.Errorf("%s: disk fill lowered: prog=%v lower=%s optimize=%s cacheHit=%v",
				jobs[i].Name, r.Prog != nil, r.Lower, r.Optimize, r.CacheHit)
		}
	}
	if got := observe(jobs, results); !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: warm diverges from cold:\n got %+v\nwant %+v", jobs[i].Name, got[i], want[i])
			}
		}
	}
}

// TestMemoHitReportsCompileFacts evaluates one job on every bytecode
// engine twice on one pool. The first evaluation fills the memo and
// carries its IR; the second is a hit that lowers nothing but reports
// the same compile facts and observables.
func TestMemoHitReportsCompileFacts(t *testing.T) {
	for _, eng := range []nascent.Engine{nascent.EngineVM, nascent.EngineVMOpt,
		nascent.EngineVMRCE, nascent.EngineVMJit, nascent.EngineTiered} {
		t.Run(eng.String(), func(t *testing.T) {
			pool := evalpool.New(1)
			job := evalpool.Job{
				Name:     "p7",
				Source:   srcN(7),
				Filename: "p7.mf",
				Opts:     nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
				Run:      nascent.RunConfig{Engine: eng},
			}
			miss := pool.Evaluate([]evalpool.Job{job})[0]
			hit := pool.Evaluate([]evalpool.Job{job})[0]
			if miss.Err != nil || hit.Err != nil {
				t.Fatalf("miss err %v, hit err %v", miss.Err, hit.Err)
			}
			if miss.Prog == nil || miss.CacheHit || miss.Lower == 0 {
				t.Errorf("miss: prog=%v cacheHit=%v lower=%s; want a lowered program", miss.Prog != nil, miss.CacheHit, miss.Lower)
			}
			if hit.Prog != nil || !hit.CacheHit || hit.Frontend != 0 || hit.Lower != 0 || hit.Optimize != 0 {
				t.Errorf("hit did compile work: prog=%v cacheHit=%v frontend=%s lower=%s optimize=%s",
					hit.Prog != nil, hit.CacheHit, hit.Frontend, hit.Lower, hit.Optimize)
			}
			if miss.StaticChecks != miss.Prog.StaticChecks() || miss.Opt != miss.Prog.Opt {
				t.Errorf("miss compile facts disagree with its program")
			}
			if hit.StaticChecks != miss.StaticChecks || !reflect.DeepEqual(hit.Opt, miss.Opt) || hit.Opt == nil {
				t.Errorf("hit compile facts (%d, %+v) differ from miss (%d, %+v)",
					hit.StaticChecks, hit.Opt, miss.StaticChecks, miss.Opt)
			}
			if hit.Res != miss.Res {
				t.Errorf("hit result %+v differs from miss %+v", hit.Res, miss.Res)
			}
			m := pool.Metrics()
			if m.BytecodeCompiles != 1 || m.BytecodeHits != 1 || m.FrontendCompiles != 1 || m.FrontendHits != 1 {
				t.Errorf("metrics: %d/%d bytecode compiles/hits, %d/%d frontend compiles/hits; want 1/1, 1/1",
					m.BytecodeCompiles, m.BytecodeHits, m.FrontendCompiles, m.FrontendHits)
			}
		})
	}
}

// TestMemoHitErrorIdentity pins that a failed job fails the same way on
// a memo hit as on the miss that filled the entry: the same error text,
// the same wrapped error type, and the same stage tag — "name: err" for
// a compile failure, "name: run: err" for a run failure.
func TestMemoHitErrorIdentity(t *testing.T) {
	cases := []struct {
		name   string
		job    evalpool.Job
		prefix string
		is     error
	}{
		{
			name:   "compile",
			job:    evalpool.Job{Name: "bad", Source: "program broken\n  this is not MF\nend\n"},
			prefix: "bad: ",
		},
		{
			name: "run",
			job: evalpool.Job{Name: "budget", Source: srcN(4), Opts: nascent.Options{BoundsChecks: true},
				Run: nascent.RunConfig{MaxInstructions: 10}},
			prefix: "budget: run: ",
			is:     nascent.ErrResourceExhausted,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := evalpool.New(1)
			job := tc.job
			job.Run.Engine = nascent.EngineVMRCE
			miss := pool.Evaluate([]evalpool.Job{job})[0]
			hit := pool.Evaluate([]evalpool.Job{job})[0]
			if miss.Err == nil || hit.Err == nil {
				t.Fatalf("miss err %v, hit err %v; want both to fail", miss.Err, hit.Err)
			}
			if m := pool.Metrics(); m.BytecodeHits != 1 {
				t.Fatalf("second evaluation was not a memo hit: %+v", m)
			}
			if miss.Err.Error() != hit.Err.Error() {
				t.Errorf("error text differs:\nmiss %q\nhit  %q", miss.Err, hit.Err)
			}
			if mt, ht := fmt.Sprintf("%T", errors.Unwrap(miss.Err)), fmt.Sprintf("%T", errors.Unwrap(hit.Err)); mt != ht {
				t.Errorf("wrapped error type differs: miss %s, hit %s", mt, ht)
			}
			for _, r := range []evalpool.Result{miss, hit} {
				msg := r.Err.Error()
				if !strings.HasPrefix(msg, tc.prefix) || (tc.is == nil && strings.Contains(msg, ": run: ")) {
					t.Errorf("error %q lacks stage prefix %q", msg, tc.prefix)
				}
				if tc.is != nil && !errors.Is(r.Err, tc.is) {
					t.Errorf("error %q is not %v", msg, tc.is)
				}
			}
		})
	}
}

// TestMemoConcurrentFill sends many copies of one job through a
// parallel pool at once: exactly one fills the memo entry, every other
// copy waits for it and is a hit, and all report the same compile
// facts and observables. Run under -race it covers the entry's
// publication to concurrent readers.
func TestMemoConcurrentFill(t *testing.T) {
	job := evalpool.Job{
		Name:     "p9",
		Source:   srcN(9),
		Filename: "p9.mf",
		Opts:     nascent.Options{BoundsChecks: true, Scheme: nascent.LLS},
		Run:      nascent.RunConfig{Engine: nascent.EngineVMRCE},
	}
	jobs := make([]evalpool.Job, 32)
	for i := range jobs {
		jobs[i] = job
	}
	pool := evalpool.New(8)
	results := pool.Evaluate(jobs)
	filled := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Prog != nil {
			filled++
		}
		if r.StaticChecks != results[0].StaticChecks || r.Opt != results[0].Opt || r.Res != results[0].Res {
			t.Errorf("copies disagree: %+v vs %+v", r, results[0])
		}
	}
	m := pool.Metrics()
	if filled != 1 || m.BytecodeCompiles != 1 || m.BytecodeHits != len(jobs)-1 || m.FrontendCompiles != 1 {
		t.Errorf("%d fills, %d compiles / %d hits, %d frontend compiles; want 1, 1 / %d, 1",
			filled, m.BytecodeCompiles, m.BytecodeHits, m.FrontendCompiles, len(jobs)-1)
	}
}

// TestSubmitStateIsBounded streams 2000 distinct sources through
// SubmitCtx, every second one Fresh, on a pool whose program cache
// holds 64 entries. Only the cached half reaches the cache, the cache
// never exceeds its capacity (tier handles included), and no front end
// outlives its job: a repeated Fresh source runs the front end again.
func TestSubmitStateIsBounded(t *testing.T) {
	const capacity, n = 64, 2000
	pool := evalpool.NewSupervised(evalpool.Config{Workers: 1, CacheEntries: capacity})
	engines := []nascent.Engine{nascent.EngineVMRCE, nascent.EngineVMJit, nascent.EngineTiered}
	for i := 0; i < n; i++ {
		job := evalpool.Job{
			Name:   fmt.Sprintf("p%d", i),
			Source: srcN(i),
			Opts:   nascent.Options{BoundsChecks: true},
			Run:    nascent.RunConfig{Engine: engines[i%len(engines)]},
			Fresh:  i%2 == 1,
		}
		r := pool.SubmitCtx(context.Background(), job)
		if r.Err != nil {
			t.Fatalf("%s: %v", job.Name, r.Err)
		}
		if want := fmt.Sprintf("%d\n", i); r.Res.Output != want {
			t.Fatalf("%s: output %q, want %q", job.Name, r.Res.Output, want)
		}
		if st := pool.CacheStats(); st.Entries > capacity {
			t.Fatalf("after %d jobs the cache holds %d entries, capacity %d", i+1, st.Entries, capacity)
		}
	}
	st := pool.CacheStats()
	if st.Entries != capacity || st.Misses != n/2 || st.Hits != 0 || st.Evictions != n/2-capacity {
		t.Errorf("cache stats %+v; want %d entries, %d misses, 0 hits, %d evictions", st, capacity, n/2, n/2-capacity)
	}
	pool.SettleTiers()
	if rows := pool.MetricsSnapshot().TierPrograms; len(rows) > capacity {
		t.Errorf("%d tier rows outlive a %d-entry cache", len(rows), capacity)
	}

	before := pool.Metrics()
	again := evalpool.Job{Name: "again", Source: srcN(1), Opts: nascent.Options{BoundsChecks: true}, Fresh: true}
	for i := 0; i < 2; i++ {
		if r := pool.SubmitCtx(context.Background(), again); r.Err != nil || r.CacheHit {
			t.Fatalf("fresh resubmission %d: err %v, cacheHit %v", i, r.Err, r.CacheHit)
		}
	}
	if m := pool.Metrics(); m.FrontendCompiles-before.FrontendCompiles != 2 || m.FrontendHits != before.FrontendHits {
		t.Errorf("a submitted job's front end was retained: %d compiles, %d hits added",
			m.FrontendCompiles-before.FrontendCompiles, m.FrontendHits-before.FrontendHits)
	}
	if got := pool.CacheStats(); got != st {
		t.Errorf("fresh jobs touched the cache: %+v, was %+v", got, st)
	}
}
