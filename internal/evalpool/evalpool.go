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
//   - Shared compile work: a bytecode job (every engine but the tree
//     walker) looks up its bytecode memo entry, keyed by source hash,
//     filename, options and engine, before any compile work. Only the
//     job that fills the entry runs the front end, lowering, the scheme
//     optimizer and the bytecode pipeline — or decodes the program from
//     the disk cache — and every later job for the same key just runs
//     the shared program. Jobs that need the IR itself (tree-engine,
//     Mutate and SkipRun jobs) lower fresh IR every time. Front ends are
//     memoized by (source hash, filename) for both kinds, so the ~20
//     optimizer variants of one program share a single
//     parse/semantic-analysis; nascent.Frontend is immutable and safe
//     for concurrent Compile calls.
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
	// is part of the memoization key because positions embed it.
	Filename string
	// Opts selects the backend configuration (BoundsChecks, Scheme,
	// Kind, Implications, RotateLoops). Opts.Filename is ignored; use
	// the Filename field.
	Opts nascent.Options
	// Run bounds execution (zero value = interpreter defaults).
	Run nascent.RunConfig
	// SkipRun compiles without executing (Result.Res stays zero). A
	// SkipRun job never consults the bytecode memo, so its Result
	// always carries the lowered Prog: callers that need the IR use it.
	SkipRun bool
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
	// for concurrent Run calls — the service layer shares one compiled
	// program across every request that hits its cache entry.
	Precompiled Runner
}

// Runner is a precompiled program handle a Precompiled job executes
// directly. Both *vm.Program and the service layer's tree-engine
// adapter satisfy it; implementations must be safe for concurrent use.
type Runner interface {
	Run(cfg nascent.RunConfig) (nascent.RunResult, error)
}

// Result is the outcome of one Job. Err carries the first failing
// stage's error; when it is nil the compile facts and Res are
// meaningful.
type Result struct {
	// Prog is the program this job lowered and optimized. Tree-engine,
	// Mutate and SkipRun jobs always lower, so their Prog is set
	// whenever compilation succeeded. A bytecode job lowers only to fill
	// its bytecode memo entry: Prog is nil on a memo hit and on a fill
	// decoded from the disk cache. It is owned by the caller after
	// Evaluate returns: post-processing that mutates its IR (e.g. loop
	// analysis inserting preheaders) is safe.
	Prog *nascent.Program
	// StaticChecks and Opt are the compiled program's static check
	// count and optimizer report (Opt is nil for an unoptimized build).
	// They are set whenever compilation succeeded, memo hits included.
	// Jobs served by one memo entry share one Opt: treat it as
	// read-only.
	StaticChecks int
	Opt          *nascent.OptReport
	// Res is the run result (zero when SkipRun or on error).
	Res nascent.RunResult
	// Err is the first error of the job's pipeline, wrapped with the
	// job name and stage.
	Err error
	// Stage timings for this job. Each cost is charged to the job that
	// paid it: Frontend is zero when the front end came from its memo,
	// and Frontend, Lower and Optimize are all zero on a bytecode memo
	// hit or a disk-cache fill, where the job lowers nothing. Run
	// includes the bytecode pipeline (vm.Compile and the engine's
	// rewrites) for the job that compiled it.
	Frontend, Lower, Optimize, Run time.Duration
	// CacheHit reports that the job ran no front end: it came from the
	// front-end memo, or the job's bytecode came from the bytecode memo
	// or the disk cache.
	CacheHit bool
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
	// CacheHit is set on frontend events served from the front-end
	// memo, and on the single zero-duration compile event of a job
	// whose bytecode came from the bytecode memo or the disk cache.
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
	// the front-end memo, the bytecode memo or the disk cache served
	// them.
	FrontendCompiles int
	FrontendHits     int
	// BytecodeCompiles / BytecodeHits split the bytecode memo's traffic
	// (bytecode-engine jobs without Mutate or SkipRun; other jobs never
	// touch it). BytecodeDiskHits counts memo fills satisfied by the
	// disk cache — a decode instead of a compile.
	BytecodeCompiles int
	BytecodeHits     int
	BytecodeDiskHits int
	// Stage wall-clock totals, summed across workers (under full
	// parallelism the sum exceeds elapsed time). CompileTime is lowering
	// plus the scheme optimizer, so bytecode memo hits add nothing to
	// it; RunTime includes each bytecode memo fill's bytecode pipeline.
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

// Pool is a bounded-concurrency evaluation engine with a memoized
// front-end table. The zero value is not usable; call New.
//
// A Pool may be reused across many Evaluate calls: the memo table and
// metrics accumulate. Evaluate itself may be called concurrently.
type Pool struct {
	workers int
	cfg     Config
	trace   TraceFunc
	disk    *progcache.Cache // nil = memory-only; see SetDiskCache

	mu      sync.Mutex
	memo    map[feKey]*feEntry
	bcMemo  map[bcKey]*bcEntry
	metrics Metrics
}

type feKey struct {
	hash     [sha256.Size]byte
	filename string
}

// bcKey identifies one compiled bytecode program: the front-end key,
// the full backend option set, and the engine tier (plain vm and the
// optimized vmopt rewrite are distinct programs). The whole compile
// pipeline is deterministic, so two jobs with equal keys lower to
// equivalent IR and can share one immutable vm.Program. For the vmjit
// and tiered engines the entry additionally carries the mutable tier
// state — hotness counters, the accumulating profile, the
// closure-compiled program once promotion lands — keyed alongside the
// same content hash, so every job for the same (source, options,
// engine) warms the same handle.
type bcKey struct {
	fe     feKey
	opts   nascent.Options
	engine nascent.Engine
}

// bcEntry is a once-guarded bytecode memo slot, like feEntry. Exactly
// one of prog/jit/trd is set after a successful fill, by engine. The
// entry also keeps the small compile facts a job reports, the same ones
// a progcache.Entry carries, so a hit needs no IR.
type bcEntry struct {
	once         sync.Once
	prog         *vm.Program     // vm / vmopt / vmrce: shared immutable program
	jit          *tier.JitHandle // vmjit: profile-on-first-run closure handle
	trd          *tier.Program   // tiered: hotness-driven tiering controller
	staticChecks int
	opt          *nascent.OptReport
	// err is a front-end, lowering or optimizer failure; bcErr a
	// bytecode-pipeline failure, which jobs report as a run error.
	err   error
	bcErr error
}

// feEntry is a once-guarded memo slot: the first job to need a front
// end compiles it, concurrent jobs for the same source block on the
// same entry instead of duplicating work.
type feEntry struct {
	once sync.Once
	fe   *nascent.Frontend
	err  error
	dur  time.Duration
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
		memo:    make(map[feKey]*feEntry),
		bcMemo:  make(map[bcKey]*bcEntry),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetDiskCache layers a disk-backed program cache under the bytecode
// memo: memo fills consult it before compiling (a warm process decodes
// instead of compiling) and write fresh compiles back for the next
// process. Install it before Evaluate. The disk is strictly an
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
	n := p.workers
	if n > len(jobs) {
		n = len(jobs)
	}
	if n <= 1 {
		for i := range jobs {
			results[i] = p.superviseJob(ctx, i, &jobs[i])
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
				results[i] = p.superviseJob(ctx, i, &jobs[i])
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
// the pool contributes supervision, the memo tables, and metrics.
// Cancelling ctx stops an in-flight engine run at its next poll point
// and surfaces a typed cancellation error.
func (p *Pool) SubmitCtx(ctx context.Context, job Job) Result {
	return p.superviseJob(ctx, 0, &job)
}

// frontend returns the memoized front end for a job, compiling it on
// first use. The duration returned is the compile cost when this call
// populated the entry, zero on a hit.
func (p *Pool) frontend(job *Job, key feKey) (*nascent.Frontend, time.Duration, bool, error) {
	p.mu.Lock()
	e := p.memo[key]
	if e == nil {
		e = &feEntry{}
		p.memo[key] = e
	}
	p.mu.Unlock()

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

// bytecodeEngine reports whether eng runs through the bytecode memo.
func bytecodeEngine(eng nascent.Engine) bool {
	switch eng {
	case nascent.EngineVM, nascent.EngineVMOpt, nascent.EngineVMRCE,
		nascent.EngineVMJit, nascent.EngineTiered:
		return true
	}
	return false
}

// frontendKey is a job's front-end memo key.
func frontendKey(job *Job) feKey {
	return feKey{hash: sha256.Sum256([]byte(job.Source)), filename: job.Filename}
}

// memoized reports whether a job runs through the bytecode memo: a
// bytecode engine, no Mutate hook (it rewrites the IR the memo would
// share), and a run to do (SkipRun callers want the IR itself).
func memoized(job *Job) bool {
	return bytecodeEngine(job.Run.Engine) && job.Mutate == nil && !job.SkipRun
}

// compile runs the front end (through its memo), lowering and the
// scheme optimizer for one job, recording the stage timings and compile
// facts in res and emitting the frontend and compile trace events.
func (p *Pool) compile(i int, job *Job, key feKey, res *Result) (*nascent.Program, error) {
	fe, feDur, hit, err := p.frontend(job, key)
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

// bytecode returns the bytecode memo entry of a memoized job, filling
// it on first use. Every job for the same (source, filename, options,
// engine) shares one entry: the compile pipeline is deterministic, so
// one immutable vm.Program serves them all — EngineVMOpt entries hold
// the superinstruction-optimized rewrite, EngineVMRCE entries the
// guard/deopt range-check-elimination pipeline, while EngineVMJit and
// EngineTiered entries hold a mutable tier handle whose hotness state
// persists across jobs (the second job for the same source runs warmer
// than the first). Only the filling job does compile work, so only it
// returns a lowered program; it is nil on a hit and on a disk fill.
func (p *Pool) bytecode(i int, job *Job, key feKey, res *Result) (*bcEntry, *nascent.Program) {
	opts := job.Opts
	opts.Filename = "" // ignored by Compile; keep it out of the key
	bk := bcKey{fe: key, opts: opts, engine: job.Run.Engine}
	p.mu.Lock()
	e := p.bcMemo[bk]
	if e == nil {
		e = &bcEntry{}
		p.bcMemo[bk] = e
	}
	p.mu.Unlock()

	hit, diskHit := true, false
	var prog *nascent.Program
	e.once.Do(func() {
		hit = false
		prog, diskHit = p.fill(i, job, bk, e, res)
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
		p.emit(Event{Job: i, Name: job.Name, Stage: StageCompile, CacheHit: true, Err: e.err})
	}
	res.StaticChecks, res.Opt = e.staticChecks, e.opt
	return e, prog
}

// fill populates a bytecode memo entry: from the disk cache when it
// holds the program, otherwise by compiling the job and running the
// engine's bytecode pipeline, persisting the result for the next
// process. It returns the lowered program (nil on a disk fill) and
// whether the disk served the fill.
func (p *Pool) fill(i int, job *Job, bk bcKey, e *bcEntry, res *Result) (*nascent.Program, bool) {
	eng := bk.engine
	var dk progcache.Key
	if p.disk != nil {
		filename := job.Filename
		if filename == "" {
			filename = "input.mf"
		}
		dk = progcache.KeyOf(job.Source, filename, bk.opts, eng)
		if ent, err := p.disk.Get(dk); err == nil {
			// Warm start: the program comes off disk bit-identical to a
			// fresh compile (the codec round-trip is pinned by the
			// progio suite), so the whole compile costs one decode. Tier
			// handles still start cold — hotness is process state, not
			// program state.
			e.staticChecks, e.opt = ent.StaticChecks, ent.Opt
			p.install(e, eng, ent.Prog)
			return nil, true
		}
	}

	prog, err := p.compile(i, job, bk.fe, res)
	if err != nil {
		e.err = err
		return nil, false
	}
	e.staticChecks, e.opt = res.StaticChecks, res.Opt
	// The bytecode pipeline is charged to the filling job's Run, as the
	// stage that executes the program.
	t0 := time.Now()
	defer func() { res.Run += time.Since(t0) }()
	var vp *vm.Program
	switch eng {
	case nascent.EngineVMOpt:
		vp, err = vm.CompileOptimized(prog.IR)
	case nascent.EngineVMRCE, nascent.EngineVMJit:
		// The guard/deopt rewrite plus the optimizer: vmrce runs it on
		// the switch VM, vmjit closure-compiles the same stream (vmrce
		// is the jit's input tier).
		vp, err = vm.CompileRCE(prog.IR)
	default:
		vp, err = vm.Compile(prog.IR)
	}
	if err != nil {
		e.bcErr = err
		return prog, false
	}
	if p.disk != nil {
		// Best-effort persist for the next process.
		p.disk.Put(dk, &progcache.Entry{Prog: vp, StaticChecks: e.staticChecks, Opt: e.opt})
	}
	p.install(e, eng, vp)
	return prog, false
}

// install stores a filled entry's program, wrapped in the tier handle
// its engine executes through.
func (p *Pool) install(e *bcEntry, eng nascent.Engine, vp *vm.Program) {
	switch eng {
	case nascent.EngineVMJit:
		e.jit = tier.NewJitHandle(vp)
	case nascent.EngineTiered:
		e.trd = tier.FromBytecode(vp, p.cfg.TierThresholds)
	default:
		e.prog = vp
	}
}

// run executes the entry's shared program under cfg.
func (e *bcEntry) run(cfg nascent.RunConfig) (nascent.RunResult, error) {
	switch {
	case e.bcErr != nil:
		return nascent.RunResult{}, e.bcErr
	case e.jit != nil:
		return e.jit.Run(cfg)
	case e.trd != nil:
		return e.trd.Run(cfg)
	}
	return e.prog.Run(cfg)
}

// SettleTiers blocks until no background tier promotion (a vmjit
// closure compile or a tiered-engine recompilation) is in flight.
// Promotion is asynchronous by design; tests and deterministic
// snapshots drain it here.
func (p *Pool) SettleTiers() {
	p.mu.Lock()
	var hs []*tier.JitHandle
	var ts []*tier.Program
	for _, e := range p.bcMemo {
		if e.jit != nil {
			hs = append(hs, e.jit)
		}
		if e.trd != nil {
			ts = append(ts, e.trd)
		}
	}
	p.mu.Unlock()
	for _, h := range hs {
		h.Settle()
	}
	for _, t := range ts {
		t.Settle()
	}
}

// runJob is one attempt at a job: get something runnable, then run it
// unless SkipRun. A Precompiled job brings its own program. A memoized
// job consults its bytecode memo entry before any compile work and
// compiles only to fill it. Every other job compiles its own IR.
func (p *Pool) runJob(i int, job *Job) Result {
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
	case memoized(job):
		e, prog := p.bytecode(i, job, frontendKey(job), &res)
		if e.err != nil {
			return fail("%s: %w", e.err)
		}
		res.Prog, run = prog, e.run
	default:
		prog, err := p.compile(i, job, frontendKey(job), &res)
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
	// Tiering state, summed across the pool's vmjit/tiered memo
	// entries; TierPrograms breaks it down per program handle, sorted
	// by key then engine so the wire form is deterministic.
	TierPromotions uint64                `json:"tier_promotions"`
	TierDemotions  uint64                `json:"tier_demotions"`
	TierPrograms   []TierProgramSnapshot `json:"tier_programs,omitempty"`
}

// TierProgramSnapshot is the wire form of one vmjit/tiered memo
// entry's controller state: which tier the program is serving from and
// the hotness/promotion counters that got it there.
type TierProgramSnapshot struct {
	// Key identifies the program: a hex prefix of its source hash (the
	// same content hash that keys the bytecode memo).
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
// including the per-program tier state of every vmjit/tiered memo
// entry.
func (p *Pool) MetricsSnapshot() MetricsSnapshot {
	snap := p.Metrics().Snapshot()
	type handle struct {
		key string
		eng string
		s   tier.Snapshot
	}
	var hs []handle
	p.mu.Lock()
	for k, e := range p.bcMemo {
		switch {
		case e.jit != nil:
			hs = append(hs, handle{hex.EncodeToString(k.fe.hash[:8]), k.engine.String(), e.jit.Snapshot()})
		case e.trd != nil:
			hs = append(hs, handle{hex.EncodeToString(k.fe.hash[:8]), k.engine.String(), e.trd.Snapshot()})
		}
	}
	p.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].key != hs[j].key {
			return hs[i].key < hs[j].key
		}
		return hs[i].eng < hs[j].eng
	})
	for _, h := range hs {
		snap.TierPromotions += h.s.Promotions
		snap.TierDemotions += h.s.Demotions
		snap.TierPrograms = append(snap.TierPrograms, TierProgramSnapshot{
			Key:          h.key,
			Engine:       h.eng,
			Tier:         h.s.Tier,
			Runs:         h.s.Runs,
			Instructions: h.s.Instrs,
			ProfiledRuns: h.s.ProfiledRuns,
			Promotions:   h.s.Promotions,
			Demotions:    h.s.Demotions,
		})
	}
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
