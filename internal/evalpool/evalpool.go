// Package evalpool is the concurrent evaluation engine behind the
// benchmark pipeline: it shards a matrix of independent compile+run
// jobs (program × scheme × check kind × implication mode × rotation)
// across a bounded worker pool and merges the results deterministically.
//
// Three properties make the pool safe for a pipeline whose output IS
// the reproduction claim:
//
//   - Ordered reduce: Evaluate returns results indexed exactly like its
//     input jobs, independent of completion order. Rendering code that
//     iterates the result slice produces byte-identical output at any
//     worker count (the golden-table tests in internal/report pin this).
//
//   - Shared compile work: a job looks up its program in the pool's
//     program cache, a bounded LRU keyed by the program's content
//     address (progcache.KeyOf over source, filename, options and
//     engine), before any compile work. Only the job that fills an entry
//     runs the front end, lowering, the scheme optimizer and the
//     engine's bytecode pipeline — or decodes the program from the disk
//     cache — and every later job for the same key just runs the shared
//     program. An entry holds only what a run needs: the vm.Program or
//     tier handle and the compile facts; only tree-engine entries keep
//     IR. Jobs that need IR of their own (Mutate and SkipRun jobs) and
//     jobs that must retain nothing (Fresh) compile for themselves and
//     never touch the cache. Front ends are memoized for the duration of
//     one Evaluate call, so the ~20 optimizer variants of one program in
//     a batch share a single parse/semantic analysis, and nothing of the
//     front end outlives the batch.
//
//   - Observable cost: the pool aggregates per-stage wall-clock and
//     interpreter counters into Metrics, and an optional Trace hook
//     receives one event per completed stage for -trace style output.
package evalpool

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"nascent"
	"nascent/internal/progcache"
	"nascent/internal/vm"
	"nascent/internal/vm/tier"
)

// Job is one independent evaluation: compile Source under Opts and
// (unless SkipRun) execute it under Run limits.
type Job struct {
	// Name labels the job in traces and errors (e.g. "mdg/LLS/PRX").
	Name string
	// Source is the MF program text.
	Source string
	// Filename is the diagnostic filename (defaults to "input.mf"); it
	// is part of the cache key because positions embed it.
	Filename string
	// Opts selects the backend configuration (BoundsChecks, Scheme,
	// Kind, Implications, RotateLoops). Opts.Filename is ignored; use
	// the Filename field.
	Opts nascent.Options
	// Run bounds execution (zero value = interpreter defaults).
	Run nascent.RunConfig
	// SkipRun compiles without executing (Result.Res stays zero). A
	// SkipRun job never consults the program cache, so its Result
	// always carries the lowered Prog: callers that need the IR use it.
	SkipRun bool
	// Fresh compiles the job for itself and retains nothing: the
	// program cache is neither consulted nor filled, and outside an
	// Evaluate batch no front end is memoized. nascentd's no_cache
	// requests and drills set it, so tenant traffic that asks for no
	// caching cannot grow the pool.
	Fresh bool
	// Mutate, when non-nil, is applied to the compiled program before
	// it runs. The oracle uses it to inject deliberate miscompilations;
	// it runs on the worker goroutine and must only touch the program
	// it is handed.
	Mutate func(*nascent.Program)
	// Precompiled, when non-nil, bypasses the compile pipeline
	// entirely: the pool executes it directly under supervision
	// (retry/backoff, quarantine, job timeout, worker chaos sites).
	// Source/Opts should still describe the program for labeling and
	// replay purposes, but are not recompiled. The handle must be safe
	// for concurrent Run calls.
	Precompiled Runner
}

// Key is the job's content address: progcache.KeyOf over its source,
// filename (defaulted to "input.mf"), options and engine. The program
// cache, the disk cache and the fleet's per-program state all key by
// it.
func (j *Job) Key() progcache.Key {
	filename := j.Filename
	if filename == "" {
		filename = "input.mf"
	}
	return progcache.KeyOf(j.Source, filename, j.Opts, j.Run.Engine)
}

// cached reports whether a job runs through the program cache: no
// Mutate hook (it rewrites the IR the cache would share), a run to do
// (SkipRun callers want the IR itself), and no request to retain
// nothing.
func (j *Job) cached() bool {
	return j.Mutate == nil && !j.SkipRun && !j.Fresh
}

// Runner is a precompiled program handle a Precompiled job executes
// directly: a *vm.Program or any engine's run handle. Implementations
// must be safe for concurrent use.
type Runner = vm.Runner

// Result is the outcome of one Job. Err carries the first failing
// stage's error; when it is nil the compile facts and Res are
// meaningful.
type Result struct {
	// Prog is the program this job lowered, when the job owns it:
	// Fresh, Mutate and SkipRun jobs always lower, so their Prog is set
	// whenever compilation succeeded. A cached bytecode job lowers only
	// to fill its cache entry, and the entry keeps no IR, so the filling
	// job gets the lowering; Prog is nil on a hit, on a fill decoded
	// from the disk cache, and for tree-engine jobs, whose entry keeps
	// the IR to run it. A returned Prog is owned by the caller after
	// Evaluate returns: post-processing that mutates its IR (e.g. loop
	// analysis inserting preheaders) is safe.
	Prog *nascent.Program
	// Key is the job's content address (Job.Key); zero for Precompiled
	// jobs.
	Key progcache.Key
	// StaticChecks and Opt are the compiled program's static check
	// count and optimizer report (Opt is nil for an unoptimized build).
	// They are set whenever compilation succeeded, cache hits included.
	// Jobs served by one cache entry share one Opt: treat it as
	// read-only.
	StaticChecks int
	Opt          *nascent.OptReport
	// Res is the run result (zero when SkipRun or on error).
	Res nascent.RunResult
	// Err is the first error of the job's pipeline, wrapped with the
	// job name and stage.
	Err error
	// Stage timings for this job. Each cost is charged to the job that
	// paid it: Frontend is zero when the front end came from the batch's
	// memo, and Frontend, Lower and Optimize are all zero on a program
	// cache hit or a disk-cache fill, where the job lowers nothing. Run
	// includes the bytecode pipeline (vm.Compile and the engine's
	// rewrites) for the job that compiled it.
	Frontend, Lower, Optimize, Run time.Duration
	// CacheHit reports that the job ran no front end: it came from the
	// batch's front-end memo, or the job's program came from the program
	// cache or the disk cache.
	CacheHit bool
	// ProgramHit reports that the program cache already held the job's
	// program, filled by an earlier job (or being filled by a concurrent
	// one). Unlike CacheHit it is false for a fill decoded from the disk
	// cache: nascentd reports it as a response's cache_hit.
	ProgramHit bool
	// Attempts is how many times the job ran before this result (1
	// unless supervision retried it after a worker death or timeout).
	Attempts int
}

// Stage names used in trace events.
const (
	StageFrontend = "frontend"
	StageCompile  = "compile"
	StageRun      = "run"
)

// Event is one trace record: a job finished a stage.
type Event struct {
	// Job is the index of the job in the Evaluate slice.
	Job int
	// Name is the job's label.
	Name string
	// Stage is one of StageFrontend, StageCompile, StageRun.
	Stage string
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// CacheHit is set on frontend events served from the batch's
	// front-end memo, and on the single zero-duration compile event of a
	// job whose program came from the program cache or the disk cache.
	CacheHit bool
	// Err is the stage's error, if it failed.
	Err error
}

// TraceFunc receives trace events. The pool serializes calls (events
// from concurrent workers never interleave), but their order across
// jobs follows completion, not submission.
type TraceFunc func(Event)

// Metrics aggregates what a pool has done across all Evaluate calls.
type Metrics struct {
	// Jobs is the number of jobs evaluated (including failed ones). An
	// attempt abandoned at its deadline may still drain to completion on
	// its orphaned worker, so under fault injection Jobs can exceed the
	// number of input jobs; with no abnormal failures it matches exactly.
	Jobs int
	// Errors is the number of jobs that returned an error.
	Errors int
	// FrontendCompiles counts jobs that ran the front end (parse and
	// semantic analysis); FrontendHits counts jobs that did not, because
	// the batch's front-end memo, the program cache or the disk cache
	// served them.
	FrontendCompiles int
	FrontendHits     int
	// BytecodeCompiles / BytecodeHits split the program cache's traffic
	// (every lookup: cached jobs of any engine, and Lookup calls; Fresh,
	// Mutate and SkipRun jobs never touch it). BytecodeDiskHits counts
	// fills satisfied by the disk cache — a decode instead of a compile.
	BytecodeCompiles int
	BytecodeHits     int
	BytecodeDiskHits int
	// Stage wall-clock totals, summed across workers (under full
	// parallelism the sum exceeds elapsed time). CompileTime is lowering
	// plus the scheme optimizer, so program cache hits add nothing to
	// it; RunTime includes each cache fill's bytecode pipeline.
	FrontendTime time.Duration
	CompileTime  time.Duration
	RunTime      time.Duration
	// Instructions / Checks total the interpreter counters of every
	// successfully executed job.
	Instructions uint64
	Checks       uint64
	// Supervision counters. Retries counts attempts re-dispatched after
	// an abnormal failure; WorkerDeaths counts recovered worker panics;
	// Timeouts counts attempts abandoned at Config.JobTimeout;
	// Quarantined counts jobs that exhausted MaxAttempts and returned a
	// *PoisonedInputError. All stay zero when nothing goes wrong.
	Retries      int
	WorkerDeaths int
	Timeouts     int
	Quarantined  int
}

// Pool is a bounded-concurrency evaluation engine with a bounded
// program cache. The zero value is not usable; call New.
//
// A Pool may be reused across many Evaluate calls: the program cache
// and metrics accumulate. Evaluate itself may be called concurrently.
type Pool struct {
	workers int
	cfg     Config
	trace   TraceFunc
	disk    *progcache.Cache // nil = memory-only; see SetDiskCache
	cache   *Cache[progcache.Key, *program]

	mu      sync.Mutex
	metrics Metrics
}

// program is one program cache entry: exactly what a run needs, plus
// the compile facts a job reports (the same ones a progcache.Entry
// carries), so a hit needs no IR. run is the engine's run handle
// (tier.NewHandle), or the shared IR's tree evaluator; it is nil only
// when bcErr is set. Evicting the entry drops its tier handle with it:
// promotion state never outlives the artifact it describes.
type program struct {
	run          Runner
	engine       nascent.Engine
	staticChecks int
	opt          *nascent.OptReport
	// bcErr is a bytecode-pipeline failure, which jobs report as a run
	// error. Front-end, lowering and optimizer failures are the cache
	// entry's error instead.
	bcErr error
}

// Run executes the entry's shared program under cfg.
func (pr *program) Run(cfg nascent.RunConfig) (nascent.RunResult, error) {
	if pr.bcErr != nil {
		return nascent.RunResult{}, pr.bcErr
	}
	return pr.run.Run(cfg)
}

// treeRunner runs a tree-engine entry's shared IR.
type treeRunner struct{ prog *nascent.Program }

func (t treeRunner) Run(cfg nascent.RunConfig) (nascent.RunResult, error) { return t.prog.RunWith(cfg) }

type feKey struct {
	hash     [sha256.Size]byte
	filename string
}

// frontends is one Evaluate batch's front-end memo. A nil *frontends
// (SubmitCtx, Lookup) analyzes every job afresh.
type frontends struct {
	mu sync.Mutex
	m  map[feKey]*feEntry
}

// feEntry is a once-guarded memo slot: the first job to need a front
// end compiles it, concurrent jobs for the same source block on the
// same entry instead of duplicating work. nascent.Frontend is immutable
// and safe for concurrent Compile calls.
type feEntry struct {
	once sync.Once
	fe   *nascent.Frontend
	err  error
	dur  time.Duration
}

// get returns the front end for a job, compiling it on first use. The
// duration returned is the compile cost when this call populated the
// entry, zero on a hit.
func (fs *frontends) get(job *Job) (*nascent.Frontend, time.Duration, bool, error) {
	if fs == nil {
		t0 := time.Now()
		fe, err := nascent.Analyze(job.Source, job.Filename)
		return fe, time.Since(t0), false, err
	}
	key := feKey{hash: sha256.Sum256([]byte(job.Source)), filename: job.Filename}
	fs.mu.Lock()
	e := fs.m[key]
	if e == nil {
		e = &feEntry{}
		fs.m[key] = e
	}
	fs.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		t0 := time.Now()
		e.fe, e.err = nascent.Analyze(job.Source, job.Filename)
		e.dur = time.Since(t0)
	})
	if hit {
		return e.fe, 0, true, e.err
	}
	return e.fe, e.dur, false, e.err
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	return NewSupervised(Config{Workers: workers})
}

// NewSupervised returns a pool with explicit supervision policy; see
// Config for the retry/quarantine knobs. Config{} is equivalent to
// New(0).
func NewSupervised(cfg Config) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		cfg:     cfg,
		cache:   NewCache[progcache.Key, *program](cfg.CacheEntries),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetDiskCache layers a disk-backed program cache under the program
// cache: bytecode fills consult it before compiling (a warm process
// decodes instead of compiling) and write fresh compiles back for the
// next process. Install it before Evaluate. The disk is strictly an
// accelerator — any read failure falls through to a compile, and the
// decoded program is bit-identical to a compiled one by the codec's
// conformance suite.
func (p *Pool) SetDiskCache(c *progcache.Cache) { p.disk = c }

// SetTrace installs a trace hook (nil disables tracing). Install it
// before Evaluate; the hook applies to subsequent jobs.
func (p *Pool) SetTrace(f TraceFunc) {
	p.mu.Lock()
	p.trace = f
	p.mu.Unlock()
}

// Metrics returns a snapshot of the pool's aggregate counters.
func (p *Pool) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// CacheStats snapshots the program cache's counters.
func (p *Pool) CacheStats() CacheStats { return p.cache.Stats() }

// Evaluate runs every job and returns results in job order: result i
// belongs to jobs[i] regardless of which worker finished first. Job
// failures are reported per-result, never as a panic or early exit —
// one bad variant must not mask the rest of the matrix.
func (p *Pool) Evaluate(jobs []Job) []Result {
	return p.EvaluateCtx(context.Background(), jobs)
}

// EvaluateCtx is Evaluate under a context. Cancelling ctx stops the
// pool promptly: queued jobs return a cancellation error without
// running, and in-flight engine runs stop at their next poll point (the
// attempt context is threaded into each job's RunConfig). Results
// remain ordered and complete — a cancelled cell holds a typed error,
// never a hole.
//
// Every job runs under supervision: a worker panic or a Config.JobTimeout
// overrun abandons the attempt and retries the job on a fresh worker
// with capped exponential backoff, up to Config.MaxAttempts; a job that
// fails abnormally every time is quarantined behind *PoisonedInputError.
func (p *Pool) EvaluateCtx(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	fe := &frontends{m: make(map[feKey]*feEntry)}
	n := p.workers
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		for i := range jobs {
			results[i] = p.superviseJob(ctx, i, &jobs[i], fe)
		}
		return results
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.superviseJob(ctx, i, &jobs[i], fe)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// SubmitCtx runs one job to completion under the pool's supervision
// policy (retry/backoff, quarantine, job timeout) on the calling
// goroutine's attempt supervisor. Unlike EvaluateCtx it does not pass
// through the pool's worker queue: the caller is expected to bound its
// own concurrency (the service layer's admission limiter does), while
// the pool contributes supervision, the program cache, and metrics. A
// submitted job shares no front end with any other job.
// Cancelling ctx stops an in-flight engine run at its next poll point
// and surfaces a typed cancellation error.
func (p *Pool) SubmitCtx(ctx context.Context, job Job) Result {
	return p.superviseJob(ctx, 0, &job, nil)
}

// Lookup resolves a job's program through the program cache — a hit, a
// disk decode or a compile — without running it, and reports the
// compile facts. nascentd's /compile uses it, so /compile and a cached
// /run share one entry. It moves the cache counters but not Jobs; the
// job's Fresh, Mutate and SkipRun fields are ignored. A bytecode
// pipeline failure, which a run would report, is Err here.
func (p *Pool) Lookup(job Job) Result {
	res := Result{Key: job.Key()}
	pr, _, err := p.program(0, &job, nil, &res)
	if err == nil {
		err = pr.bcErr
	}
	if err != nil {
		res.Err = fmt.Errorf("%s: %w", job.Name, err)
	}
	return res
}

// compile runs the front end (through the batch's memo), lowering and
// the scheme optimizer for one job, recording the stage timings and
// compile facts in res and emitting the frontend and compile trace
// events.
func (p *Pool) compile(i int, job *Job, fs *frontends, res *Result) (*nascent.Program, error) {
	fe, feDur, hit, err := fs.get(job)
	res.Frontend, res.CacheHit = feDur, hit
	p.emit(Event{Job: i, Name: job.Name, Stage: StageFrontend, Duration: feDur, CacheHit: hit, Err: err})
	if err != nil {
		return nil, err
	}
	var st nascent.StageTimes
	prog, err := fe.CompileTimed(job.Opts, &st)
	res.Lower, res.Optimize = st.Lower, st.Optimize
	p.emit(Event{Job: i, Name: job.Name, Stage: StageCompile, Duration: st.Lower + st.Optimize, Err: err})
	if err != nil {
		return nil, err
	}
	res.StaticChecks, res.Opt = prog.StaticChecks(), prog.Opt
	return prog, nil
}

// program returns the program cache entry of a job (res.Key), filling
// it on first use. Every job for the same (source, filename, options,
// engine) shares one entry: the compile pipeline is deterministic, so
// one immutable program serves them all, while vmjit and tiered
// entries hold a mutable tier handle whose hotness state persists
// across jobs (the second job for the same source runs warmer
// than the first). Only the filling job does compile work, so only a
// bytecode fill that compiled returns a lowered program.
func (p *Pool) program(i int, job *Job, fs *frontends, res *Result) (*program, *nascent.Program, error) {
	var (
		lowered *nascent.Program
		diskHit bool
	)
	pr, hit, err := p.cache.Get(res.Key, func() (*program, error) {
		var pr *program
		var err error
		pr, lowered, diskHit, err = p.fill(i, job, fs, res)
		return pr, err
	})
	p.mu.Lock()
	switch {
	case hit:
		p.metrics.BytecodeHits++
	case diskHit:
		p.metrics.BytecodeDiskHits++
	default:
		p.metrics.BytecodeCompiles++
	}
	p.mu.Unlock()
	if hit || diskHit {
		// No front end, lowering or optimizer ran for this job.
		res.CacheHit = true
		p.emit(Event{Job: i, Name: job.Name, Stage: StageCompile, CacheHit: true, Err: err})
	}
	res.ProgramHit = hit
	if err != nil {
		return nil, nil, err
	}
	res.StaticChecks, res.Opt = pr.staticChecks, pr.opt
	return pr, lowered, nil
}

// fill builds a program cache entry: from the disk cache when it holds
// the program, otherwise by compiling the job and running the engine's
// bytecode pipeline, persisting the result for the next process. It
// returns the lowered program when the entry does not keep it, and
// whether the disk served the fill. The engine's pipeline and run
// handle come from the engine table (vm.Build, tier.NewHandle).
func (p *Pool) fill(i int, job *Job, fs *frontends, res *Result) (*program, *nascent.Program, bool, error) {
	eng := job.Run.Engine
	if p.disk != nil && eng != nascent.EngineTree {
		if ent, err := p.disk.Get(res.Key); err == nil {
			// Warm start: the program comes off disk bit-identical to a
			// fresh compile (the codec round-trip is pinned by the
			// progio suite), so the whole compile costs one decode. Tier
			// handles still start cold — hotness is process state, not
			// program state.
			return p.install(eng, ent.Prog, ent.StaticChecks, ent.Opt), nil, true, nil
		}
	}

	prog, err := p.compile(i, job, fs, res)
	if err != nil {
		return nil, nil, false, err
	}
	if eng == nascent.EngineTree {
		return &program{run: treeRunner{prog}, engine: eng, staticChecks: res.StaticChecks, opt: res.Opt}, nil, false, nil
	}
	// The bytecode pipeline is charged to the filling job's Run, as the
	// stage that executes the program.
	t0 := time.Now()
	defer func() { res.Run += time.Since(t0) }()
	vp, err := vm.Build(eng, prog.IR)
	if err != nil {
		return &program{engine: eng, staticChecks: res.StaticChecks, opt: res.Opt, bcErr: err}, prog, false, nil
	}
	if p.disk != nil {
		// Best-effort persist for the next process.
		p.disk.Put(res.Key, &progcache.Entry{Prog: vp, StaticChecks: res.StaticChecks, Opt: res.Opt})
	}
	return p.install(eng, vp, res.StaticChecks, res.Opt), prog, false, nil
}

// install wraps a bytecode program in the run handle its engine
// executes through.
func (p *Pool) install(eng nascent.Engine, vp *vm.Program, staticChecks int, opt *nascent.OptReport) *program {
	return &program{run: tier.NewHandle(eng, vp), engine: eng, staticChecks: staticChecks, opt: opt}
}

// SettleTiers blocks until no background tier promotion (a vmjit
// closure compile or a tiered-engine recompilation) is in flight.
// Promotion is asynchronous by design; tests and deterministic
// snapshots drain it here.
func (p *Pool) SettleTiers() {
	p.cache.Range(func(_ progcache.Key, pr *program) {
		if h, ok := pr.run.(tier.Handle); ok {
			h.Settle()
		}
	})
}

// runJob is one attempt at a job: get something runnable, then run it
// unless SkipRun. A Precompiled job brings its own program. A cached
// job consults the program cache before any compile work and compiles
// only to fill it. Every other job compiles its own IR.
func (p *Pool) runJob(i int, job *Job, fs *frontends) Result {
	var (
		res Result
		run func(nascent.RunConfig) (nascent.RunResult, error)
	)
	fail := func(format string, err error) Result {
		res.Err = fmt.Errorf(format, job.Name, err)
		p.account(&res)
		return res
	}

	switch {
	case job.Precompiled != nil:
		res.CacheHit = true // the compile came from the caller's cache
		run = job.Precompiled.Run
	case job.cached():
		res.Key = job.Key()
		pr, prog, err := p.program(i, job, fs, &res)
		if err != nil {
			return fail("%s: %w", err)
		}
		res.Prog, run = prog, pr.Run
	default:
		res.Key = job.Key()
		prog, err := p.compile(i, job, fs, &res)
		if err != nil {
			return fail("%s: %w", err)
		}
		if job.Mutate != nil && !job.SkipRun {
			job.Mutate(prog)
		}
		res.Prog, run = prog, prog.RunWith
	}

	if !job.SkipRun {
		t0 := time.Now()
		rr, err := run(job.Run)
		dur := time.Since(t0)
		res.Run += dur
		p.emit(Event{Job: i, Name: job.Name, Stage: StageRun, Duration: dur, Err: err})
		if err != nil {
			return fail("%s: run: %w", err)
		}
		res.Res = rr
	}
	p.account(&res)
	return res
}

// emit delivers a trace event under the pool lock so concurrent
// workers never interleave inside the hook.
func (p *Pool) emit(ev Event) {
	p.mu.Lock()
	f := p.trace
	if f != nil {
		f(ev)
	}
	p.mu.Unlock()
}

func (p *Pool) account(r *Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := &p.metrics
	m.Jobs++
	if r.Err != nil {
		m.Errors++
	}
	if r.CacheHit {
		m.FrontendHits++
	} else {
		m.FrontendCompiles++
		m.FrontendTime += r.Frontend
	}
	m.CompileTime += r.Lower + r.Optimize
	m.RunTime += r.Run
	m.Instructions += r.Res.Instructions
	m.Checks += r.Res.Checks
}

// MetricsSnapshot is the JSON-serializable form of Metrics, served by
// nascentd's GET /metrics. Field names are wire format: stable,
// snake_case, durations in nanoseconds. A unit test pins the exact
// field set — extending it is fine, renaming or dropping is a wire
// break.
type MetricsSnapshot struct {
	Jobs             int    `json:"jobs"`
	Errors           int    `json:"errors"`
	FrontendCompiles int    `json:"frontend_compiles"`
	FrontendHits     int    `json:"frontend_hits"`
	BytecodeCompiles int    `json:"bytecode_compiles"`
	BytecodeHits     int    `json:"bytecode_hits"`
	BytecodeDiskHits int    `json:"bytecode_disk_hits"`
	FrontendTimeNS   int64  `json:"frontend_time_ns"`
	CompileTimeNS    int64  `json:"compile_time_ns"`
	RunTimeNS        int64  `json:"run_time_ns"`
	Instructions     uint64 `json:"instructions"`
	Checks           uint64 `json:"checks"`
	Retries          int    `json:"retries"`
	WorkerDeaths     int    `json:"worker_deaths"`
	Timeouts         int    `json:"timeouts"`
	Quarantined      int    `json:"quarantined"`
	// Tiering state, summed across the pool's vmjit/tiered program
	// cache entries; TierPrograms breaks it down per entry, sorted by
	// key so the wire form is deterministic.
	TierPromotions uint64                `json:"tier_promotions"`
	TierDemotions  uint64                `json:"tier_demotions"`
	TierPrograms   []TierProgramSnapshot `json:"tier_programs,omitempty"`
}

// TierProgramSnapshot is the wire form of one vmjit/tiered program
// cache entry's controller state: which tier the program is serving from and
// the hotness/promotion counters that got it there.
type TierProgramSnapshot struct {
	// Key identifies the program: a hex prefix of its content address
	// (Job.Key, which keys the program cache).
	Key          string `json:"key"`
	Engine       string `json:"engine"`
	Tier         string `json:"tier"`
	Runs         uint64 `json:"runs"`
	Instructions uint64 `json:"instructions"`
	ProfiledRuns uint64 `json:"profiled_runs"`
	Promotions   uint64 `json:"promotions"`
	Demotions    uint64 `json:"demotions"`
}

// Snapshot converts the counters to their wire form.
func (m Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Jobs:             m.Jobs,
		Errors:           m.Errors,
		FrontendCompiles: m.FrontendCompiles,
		FrontendHits:     m.FrontendHits,
		BytecodeCompiles: m.BytecodeCompiles,
		BytecodeHits:     m.BytecodeHits,
		BytecodeDiskHits: m.BytecodeDiskHits,
		FrontendTimeNS:   m.FrontendTime.Nanoseconds(),
		CompileTimeNS:    m.CompileTime.Nanoseconds(),
		RunTimeNS:        m.RunTime.Nanoseconds(),
		Instructions:     m.Instructions,
		Checks:           m.Checks,
		Retries:          m.Retries,
		WorkerDeaths:     m.WorkerDeaths,
		Timeouts:         m.Timeouts,
		Quarantined:      m.Quarantined,
	}
}

// MetricsSnapshot returns the pool's aggregate counters in wire form,
// including the per-program tier state of every vmjit/tiered program
// cache entry.
func (p *Pool) MetricsSnapshot() MetricsSnapshot {
	snap := p.Metrics().Snapshot()
	p.cache.Range(func(k progcache.Key, pr *program) {
		h, ok := pr.run.(tier.Handle)
		if !ok {
			return
		}
		s := h.Snapshot()
		snap.TierPromotions += s.Promotions
		snap.TierDemotions += s.Demotions
		snap.TierPrograms = append(snap.TierPrograms, TierProgramSnapshot{
			Key:          hex.EncodeToString(k[:8]),
			Engine:       pr.engine.String(),
			Tier:         s.Tier,
			Runs:         s.Runs,
			Instructions: s.Instrs,
			ProfiledRuns: s.ProfiledRuns,
			Promotions:   s.Promotions,
			Demotions:    s.Demotions,
		})
	})
	// The key covers the engine, so it alone orders the rows.
	sort.Slice(snap.TierPrograms, func(i, j int) bool {
		return snap.TierPrograms[i].Key < snap.TierPrograms[j].Key
	})
	return snap
}

// String renders the metrics as a one-line summary for -trace output.
// Supervision counters are appended only when something abnormal
// happened, so the healthy-path line is unchanged.
func (m Metrics) String() string {
	s := fmt.Sprintf(
		"evalpool: %d jobs (%d errors), frontends %d compiled / %d shared, frontend %s, compile %s, run %s, %d instr, %d checks",
		m.Jobs, m.Errors, m.FrontendCompiles, m.FrontendHits,
		m.FrontendTime.Round(time.Millisecond),
		m.CompileTime.Round(time.Millisecond),
		m.RunTime.Round(time.Millisecond),
		m.Instructions, m.Checks)
	if m.Retries != 0 || m.WorkerDeaths != 0 || m.Timeouts != 0 || m.Quarantined != 0 {
		s += fmt.Sprintf(", %d retries, %d worker deaths, %d timeouts, %d quarantined",
			m.Retries, m.WorkerDeaths, m.Timeouts, m.Quarantined)
	}
	return s
}
