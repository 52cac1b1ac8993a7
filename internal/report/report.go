// Package report measures the benchmark suite and renders the paper's
// Tables 1–3.
//
// All measurement flows through internal/evalpool: a Runner builds the
// job matrix for a table, evaluates it on a bounded worker pool, and
// renders the ordered results. Table content is deterministic — byte
// identical at every worker count — because the interpreter counters
// are deterministic and the reduce is ordered; wall-clock timing
// columns are therefore opt-in (Config.Timings) and excluded from the
// golden files.
package report

import (
	"fmt"
	"strings"
	"time"

	"nascent"
	"nascent/internal/dom"
	"nascent/internal/evalpool"
	"nascent/internal/interp"
	"nascent/internal/loops"
	"nascent/internal/suite"
)

// Config configures a Runner.
type Config struct {
	// Jobs is the worker count of the evaluation pool (<= 0 means 1,
	// i.e. fully sequential). Table output is identical at every value;
	// only wall-clock changes.
	Jobs int
	// Timings adds the wall-clock columns (Range/Nascent) to Tables
	// 2–3. They are excluded by default so table output is
	// reproducible byte for byte. Each job is charged the compile work
	// it did: on a bytecode engine, a job served by the pool's bytecode
	// memo compiles nothing and shows zero. A Runner from New owns a
	// fresh pool, so its first table times every job; rangebench -times
	// uses one fresh Runner per table.
	Timings bool
	// Engine selects the execution substrate for every measurement job
	// (default the tree-walking reference engine). Table output is
	// identical under either engine; only wall-clock changes.
	Engine nascent.Engine
	// Trace, when non-nil, receives one event per completed job stage.
	Trace evalpool.TraceFunc
}

// Evaluator is the measurement substrate a Runner renders tables
// from: the in-process evalpool.Pool, or a fleet.Fleet sharding runs
// across worker processes. Both contracts are identical — ordered
// results, deterministic counters — so table bytes never depend on
// which one is underneath (the fleet identity tests pin this).
type Evaluator interface {
	Evaluate(jobs []evalpool.Job) []evalpool.Result
	Metrics() evalpool.Metrics
}

// Runner generates tables on a (possibly concurrent) evaluation pool.
// The pool's program cache is shared across tables and requests: a
// table's job whose program an earlier table (or request) compiled
// runs without compiling. Within one table, the ~15 variants of a
// program share one parse.
type Runner struct {
	pool    Evaluator
	timings bool
	engine  nascent.Engine
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	pool := evalpool.New(jobs)
	if cfg.Trace != nil {
		pool.SetTrace(cfg.Trace)
	}
	return &Runner{pool: pool, timings: cfg.Timings, engine: cfg.Engine}
}

// NewOnPool returns a Runner that measures on an existing pool instead
// of creating its own. nascentd uses it so report requests share the
// service pool's memoized front ends (and its supervision policy)
// across requests. Config.Jobs and Config.Trace are ignored — the pool
// owns both.
func NewOnPool(pool *evalpool.Pool, cfg Config) *Runner {
	return NewOnEvaluator(pool, cfg)
}

// NewOnEvaluator returns a Runner measuring on any Evaluator —
// rangebench's -fleet mode hands it a process fleet. Config.Jobs and
// Config.Trace are ignored; the evaluator owns its concurrency.
func NewOnEvaluator(ev Evaluator, cfg Config) *Runner {
	return &Runner{pool: ev, timings: cfg.Timings, engine: cfg.Engine}
}

// withEngine stamps the Runner's engine onto every job's run config.
func (r *Runner) withEngine(jobs []evalpool.Job) []evalpool.Job {
	for i := range jobs {
		jobs[i].Run.Engine = r.engine
	}
	return jobs
}

// Metrics returns the aggregate counters of the Runner's pool.
func (r *Runner) Metrics() evalpool.Metrics { return r.pool.Metrics() }

// Table1Row is one program's characteristics (paper Table 1).
type Table1Row struct {
	Program     string
	Suite       string
	Lines       int
	Subroutines int
	Loops       int
	StaticInstr uint64
	DynInstr    uint64
	StaticChk   int
	DynChk      uint64
	// Ratios in percent: checks vs all other instructions.
	StaticRatio float64
	DynRatio    float64
}

// table1Jobs is the three-job measurement of one program: the
// unchecked build lowered for its static shape (a SkipRun job, so its
// result always carries the IR, even when the run jobs are served from
// the program cache), the unchecked build run for instruction counts,
// and the naive checked build run for check counts.
func table1Jobs(p suite.Program) []evalpool.Job {
	plain := evalpool.Job{Name: p.Name + "/plain", Source: p.Source, Filename: p.Name + ".mf"}
	shape := plain
	shape.Name, shape.SkipRun = p.Name+"/shape", true
	return []evalpool.Job{
		shape,
		plain,
		{Name: p.Name + "/checked", Source: p.Source, Filename: p.Name + ".mf",
			Opts: nascent.Options{BoundsChecks: true}},
	}
}

// buildRow1 folds the three Table 1 measurements of one program into a
// row.
func buildRow1(p suite.Program, shape, plain, checked evalpool.Result) (Table1Row, error) {
	row := Table1Row{Program: p.Name, Suite: p.Suite, Lines: countLines(p.Source)}
	for _, r := range []evalpool.Result{shape, plain, checked} {
		if r.Err != nil {
			return row, r.Err
		}
	}
	ir := shape.Prog.IR
	row.Subroutines = len(ir.Funcs) - 1
	row.StaticInstr = interp.StaticCost(ir)
	row.DynInstr = plain.Res.Instructions
	row.StaticChk = checked.StaticChecks
	if checked.Res.Trapped {
		return row, fmt.Errorf("%s: naive run trapped: %s", p.Name, checked.Res.TrapNote)
	}
	row.DynChk = checked.Res.Checks
	// Loop analysis inserts preheader blocks, so it runs last, once
	// every measured quantity has been taken from the IR.
	for _, f := range ir.Funcs {
		forest := loops.Analyze(f, dom.Compute(f))
		row.Loops += len(forest.Loops)
	}
	row.StaticRatio = 100 * float64(row.StaticChk) / float64(row.StaticInstr)
	row.DynRatio = 100 * float64(row.DynChk) / float64(row.DynInstr)
	return row, nil
}

// Measure1 computes Table 1 for one program.
func Measure1(p suite.Program) (Table1Row, error) {
	r := New(Config{})
	results := r.pool.Evaluate(table1Jobs(p))
	return buildRow1(p, results[0], results[1], results[2])
}

func countLines(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// Table2Cell is one (program, scheme, kind) measurement (paper Table 2).
type Table2Cell struct {
	Eliminated float64       // percent of dynamic checks eliminated
	OptTime    time.Duration // range check optimization time ("Range")
	TotalTime  time.Duration // whole compile ("Nascent")
	// Err marks a failed measurement. The cell renders as "ERR!" and
	// the table call returns a *PartialError — one bad cell degrades
	// one cell, never the whole table.
	Err error
}

// optJob is the evaluation of one program under one optimizer
// configuration.
func optJob(p suite.Program, scheme nascent.Scheme, kind nascent.CheckKind, impl nascent.Implications) evalpool.Job {
	return evalpool.Job{
		Name:     fmt.Sprintf("%s/%v/%v", p.Name, scheme, kind),
		Source:   p.Source,
		Filename: p.Name + ".mf",
		Opts: nascent.Options{
			BoundsChecks: true,
			Scheme:       scheme,
			Kind:         kind,
			Implications: impl,
		},
	}
}

// buildCell folds one optimized evaluation into a Table 2/3 cell. A
// failed measurement comes back as a cell with Err set, never as a
// hard error: the caller renders the rest of the table around it.
func buildCell(name string, res evalpool.Result, naiveChecks uint64) Table2Cell {
	var cell Table2Cell
	if res.Err != nil {
		cell.Err = res.Err
		return cell
	}
	cell.OptTime = res.Optimize
	cell.TotalTime = res.Frontend + res.Lower + res.Optimize
	if res.Res.Trapped {
		cell.Err = fmt.Errorf("%s: optimized run trapped: %s", name, res.Res.TrapNote)
		return cell
	}
	if naiveChecks == 0 {
		cell.Err = fmt.Errorf("%s: naive check count is zero", name)
		return cell
	}
	cell.Eliminated = 100 * (1 - float64(res.Res.Checks)/float64(naiveChecks))
	return cell
}

// Measure2 runs one scheme/kind over one program and reports the
// elimination percentage against the naive dynamic check count.
func Measure2(p suite.Program, scheme nascent.Scheme, kind nascent.CheckKind, impl nascent.Implications, naiveChecks uint64) (Table2Cell, error) {
	r := New(Config{})
	job := optJob(p, scheme, kind, impl)
	res := r.pool.Evaluate([]evalpool.Job{job})[0]
	cell := buildCell(job.Name, res, naiveChecks)
	return cell, cell.Err
}

// NaiveChecks runs the unoptimized checked build and returns its dynamic
// check count (the Table 2/3 denominators).
func NaiveChecks(p suite.Program) (uint64, error) {
	prog, err := nascent.Compile(p.Source, nascent.Options{Filename: p.Name + ".mf", BoundsChecks: true})
	if err != nil {
		return 0, err
	}
	res, err := prog.Run()
	if err != nil {
		return 0, err
	}
	return res.Checks, nil
}
