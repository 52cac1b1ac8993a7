package vm

// jitfuse.go — profile-guided superinstruction selection for the
// closure tier.
//
// Where fuse.go fuses a fixed pattern table at the bytecode level, the
// jit fuses whatever the profile says this workload actually executes:
// an adjacent-in-code opcode digram, or a straight-line run of up to
// runCap instructions, is collapsed into one closure when every link's
// dynamic pair count in the DispatchStats profile clears the hotness
// floor. The fused closure runs the instruction bodies back to back —
// each with its own cost charge at the exact point the unfused chain
// charged it — so observables are untouched; only dispatch count drops.
//
// Fusing at block boundaries is safe by construction: heads[pc+1]
// keeps its standalone closure, so a branch into the middle of a fused
// pair enters the plain chain. The heavy bodies are shared with the
// singles as captured-operand executors (jit.go). Runs and most
// digrams compose them generically through their step functions. A
// digram gets a handwritten combinator only where it pays: a branch,
// which has no step executor, or a pair that fires on vmjit's own
// (guard-rewritten) bytecode and measurably wins from direct method
// calls (EXPERIMENTS.md, "Fuse in the jit only what vmjit's bytecode
// reaches").

import "nascent/internal/interp"

// hotFloor is the selection threshold denominator: a digram is hot
// when the profile saw it at least Dispatched/hotFloor times. At 256
// a pair must carry ~0.4% of all dispatches — comfortably above noise,
// far below the suite's dominant pairs.
const hotFloor = 256

func (b *jitBuilder) hot(a, c uint8) bool {
	p := b.prof
	if p == nil || p.Dispatched == 0 {
		return false
	}
	n := p.Pairs[a][c]
	return n > 0 && n >= p.Dispatched/hotFloor
}

func (b *jitBuilder) markFused(pc int32, ops ...uint8) {
	name := ""
	for i, op := range ops {
		if i > 0 {
			name += "+"
		}
		name += OpName(op)
	}
	b.stats.Pairs[name]++
	switch len(ops) {
	case 2:
		b.stats.FusedDigrams++
	case 3:
		b.stats.FusedTrigrams++
	default:
		b.stats.FusedRuns++
	}
}

// fused compiles a superinstruction entry for pc when the profile
// marks the digram starting there hot and a combinator for its opcode
// pattern exists. Returns nil to fall back to the plain chain.
func (b *jitBuilder) fused(pc int32) jop {
	code := b.vp.code
	if b.prof == nil || int(pc)+1 >= len(code) {
		return nil
	}
	in0 := &code[pc]
	in1 := &code[pc+1]
	if !b.hot(in0.op, in1.op) {
		return nil
	}
	b.stats.HotSites++

	// Runs first: when the second link is hot too, a straight-line run
	// combinator takes as many hot step-executable links as the code
	// offers in one closure.
	if int(pc)+2 < len(code) && b.hot(in1.op, code[pc+2].op) {
		if f, ops := b.fuseRun(pc); f != nil {
			b.markFused(pc, ops...)
			return f
		}
	}
	if f := b.fuse2(pc, in0, in1); f != nil {
		b.markFused(pc, in0.op, in1.op)
		return f
	}
	return nil
}

// fuse2 builds the digram combinator for (in0, in1) at pc, or nil if
// the pattern has none. The handwritten cases are the branch digrams
// and the step pairs that fire on vmjit's bytecode; every other pair
// of step-executable opcodes composes through the generic fallback.
func (b *jitBuilder) fuse2(pc int32, in0, in1 *instr) jop {
	c0 := uint64(in0.cost)
	c1 := uint64(in1.cost)
	next := b.heads[pc+2]

	switch {
	// movi feeding a fused loop latch: the dominant do-loop tail.
	case in0.op == opMovI && in1.op >= opIncBrEqI && in1.op <= opIncBrGeI:
		dst, src := in0.a, in0.b
		kind := in1.op - opIncBrEqI
		reg, lim := in1.b, in1.c
		delta := int64(int32(uint32(in1.imm)))
		phT, phF := b.target(in1.a), b.target(int32(uint64(in1.imm)>>32))
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			j.ireg[dst] = j.ireg[src]
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			v := j.ireg[reg] + delta
			j.ireg[reg] = v
			w := j.ireg[lim]
			var t bool
			switch kind {
			case 0:
				t = v == w
			case 1:
				t = v != w
			case 2:
				t = v < w
			case 3:
				t = v <= w
			case 4:
				t = v > w
			default:
				t = v >= w
			}
			if t {
				return *phT
			}
			return *phF
		}

	// Step pairs hot on vmjit's bytecode, chained with direct
	// (monomorphic) method calls: measurably faster than the generic
	// fallback's func-value calls on vortex, arc2d and dyfesm.
	//
	// 2-D load feeding an integer add (gather + subscript arithmetic).
	case (in0.op == opLoadF2 || in0.op == opLoadI2) && in1.op == opAddI:
		l0 := b.build1Exec2D(in0)
		dst, l, r := in1.a, in1.b, in1.c
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !l0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			j.ireg[dst] = j.ireg[l] + j.ireg[r]
			return next
		}

	case in0.op == opLoadF2 && in1.op == opLoadBinF2:
		l0 := b.build1Exec2D(in0)
		o := b.newLoadBinF2(in1)
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !l0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			if !o.exec(j) {
				return nil
			}
			return next
		}

	// Residual check streams: back-to-back general checks.
	case in0.op == opCheck && in1.op == opCheck:
		o0 := b.newCheck(in0)
		o1 := b.newCheck(in1)
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !o0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			if !o1.exec(j) {
				return nil
			}
			return next
		}

	case in0.op == opLoadBinF1 && (in1.op == opBinStoreI1 || in1.op == opBinStoreF1):
		o0, o1 := b.newLoadBinF1(in0), b.newBinStore1(in1)
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !o0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			if !o1.exec(j) {
				return nil
			}
			return next
		}

	case in0.op == opLoadBinF1 && in1.op == opBinBinStoreF1:
		o0, o1 := b.newLoadBinF1(in0), b.newBinBinStoreF1(in1)
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !o0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			if !o1.exec(j) {
				return nil
			}
			return next
		}

	case in0.op == opLLBinF1 && in1.op == opBinBinF:
		o0, o1 := b.newLLBinF1(in0), b.newBinBinF(in1)
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !o0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			o1.exec(j)
			return next
		}

	// A store feeding the loop latch: fuse the latch inline, like
	// movi+incbr.
	case (in0.op == opBinStoreI1 || in0.op == opBinStoreF1) &&
		in1.op >= opIncBrEqI && in1.op <= opIncBrGeI:
		o0 := b.newBinStore1(in0)
		kind := in1.op - opIncBrEqI
		reg, lim := in1.b, in1.c
		delta := int64(int32(uint32(in1.imm)))
		phT, phF := b.target(in1.a), b.target(int32(uint64(in1.imm)>>32))
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			if !o0.exec(j) {
				return nil
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			v := j.ireg[reg] + delta
			j.ireg[reg] = v
			w := j.ireg[lim]
			var t bool
			switch kind {
			case 0:
				t = v == w
			case 1:
				t = v != w
			case 2:
				t = v < w
			case 3:
				t = v <= w
			case 4:
				t = v > w
			default:
				t = v >= w
			}
			if t {
				return *phT
			}
			return *phF
		}

	// Nested-loop latch chains: an inc-branch whose fallthrough is the
	// enclosing loop's latch. Only the fallthrough edge fuses; the
	// taken edge leaves through its own target.
	case in0.op >= opIncBrEqI && in0.op <= opIncBrGeI &&
		in1.op >= opIncBrEqI && in1.op <= opIncBrGeI &&
		int32(uint64(in0.imm)>>32) == pc+1:
		k0 := in0.op - opIncBrEqI
		reg0, lim0 := in0.b, in0.c
		d0 := int64(int32(uint32(in0.imm)))
		phT0 := b.target(in0.a)
		k1 := in1.op - opIncBrEqI
		reg1, lim1 := in1.b, in1.c
		d1 := int64(int32(uint32(in1.imm)))
		phT1, phF1 := b.target(in1.a), b.target(int32(uint64(in1.imm)>>32))
		return func(j *jmach) jop {
			if c0 != 0 && !j.charge(c0) {
				return nil
			}
			v := j.ireg[reg0] + d0
			j.ireg[reg0] = v
			w := j.ireg[lim0]
			var t bool
			switch k0 {
			case 0:
				t = v == w
			case 1:
				t = v != w
			case 2:
				t = v < w
			case 3:
				t = v <= w
			case 4:
				t = v > w
			default:
				t = v >= w
			}
			if t {
				return *phT0
			}
			if c1 != 0 && !j.charge(c1) {
				return nil
			}
			v = j.ireg[reg1] + d1
			j.ireg[reg1] = v
			w = j.ireg[lim1]
			switch k1 {
			case 0:
				t = v == w
			case 1:
				t = v != w
			case 2:
				t = v < w
			case 3:
				t = v <= w
			case 4:
				t = v > w
			default:
				t = v >= w
			}
			if t {
				return *phT1
			}
			return *phF1
		}
	}

	// Everything else composes generically over step executors: two
	// func-valued calls still beat two trampoline rounds.
	o0, _ := b.stepExec(in0)
	if o0 == nil {
		return nil
	}
	o1, _ := b.stepExec(in1)
	if o1 == nil {
		return nil
	}
	return func(j *jmach) jop {
		if c0 != 0 && !j.charge(c0) {
			return nil
		}
		if !o0(j) {
			return nil
		}
		if c1 != 0 && !j.charge(c1) {
			return nil
		}
		if !o1(j) {
			return nil
		}
		return next
	}
}

// jstep is one slot of a straight-line run: the instruction's dispatch
// charge, the executor's own worst-case internal deferred charge, and
// its step executor.
type jstep struct {
	c  uint64
	dc uint64
	fn func(*jmach) bool
}

// runCap bounds the straight-line run combinator. Each run length has
// its own unrolled closure shape — straight code, one monomorphic call
// site per position; a shared walk-a-table loop was measured slower
// (the merged call site goes megamorphic). Longer hot chains split
// into consecutive runs.
const runCap = 5

// fuseRun builds the combinator for the maximal hot straight-line run
// at pc: every opcode has a step executor and every adjacent link
// clears the hotness floor. A run of exactly three is the generic
// trigram; four and five spend the same single trampoline round on
// more instructions. Returns nil when fewer than three instructions
// qualify.
//
// Budget identity works by windowing: the closure first tests whether
// the whole run — every dispatch charge plus every executor's own
// worst-case internal deferred charge — fits under the current
// threshold. If not (budget or poll boundary near, or a zero
// threshold forced by deadline/context/chaos), it falls back to the
// per-instruction charge sequence of the plain chain, hitting
// recharge/poll at exactly the pc-accurate points. If it fits, no
// charge anywhere in the run can cross the threshold, so the dispatch
// charges commit as one add; a step that traps or faults mid-run
// subtracts the not-yet-executed tail's charges before stopping the
// trampoline, leaving counters bit-identical to sequential execution
// (trap detail is recorded without reading counters, which are only
// assembled into the result after the trampoline exits).
func (b *jitBuilder) fuseRun(pc int32) (jop, []uint8) {
	code := b.vp.code
	var steps []jstep
	var ops []uint8
	for int(pc)+len(steps) < len(code) && len(steps) < runCap {
		in := &code[int(pc)+len(steps)]
		if len(ops) > 0 && !b.hot(ops[len(ops)-1], in.op) {
			break
		}
		fn, dc := b.stepExec(in)
		if fn == nil {
			break
		}
		steps = append(steps, jstep{c: uint64(in.cost), dc: dc, fn: fn})
		ops = append(ops, in.op)
	}
	if len(steps) < 3 {
		return nil, nil
	}
	next := b.heads[int(pc)+len(steps)]
	var cTot, win uint64
	for _, s := range steps {
		cTot += s.c
		win += s.c + s.dc
	}
	switch len(steps) {
	case 3:
		s0, s1, s2 := steps[0], steps[1], steps[2]
		rem1 := s1.c + s2.c
		rem2 := s2.c
		return func(j *jmach) jop {
			if j.instrs+win > j.costThr {
				if s0.c != 0 && !j.charge(s0.c) {
					return nil
				}
				if !s0.fn(j) {
					return nil
				}
				if s1.c != 0 && !j.charge(s1.c) {
					return nil
				}
				if !s1.fn(j) {
					return nil
				}
				if s2.c != 0 && !j.charge(s2.c) {
					return nil
				}
				if !s2.fn(j) {
					return nil
				}
				return next
			}
			j.instrs += cTot
			if !s0.fn(j) {
				j.instrs -= rem1
				return nil
			}
			if !s1.fn(j) {
				j.instrs -= rem2
				return nil
			}
			if !s2.fn(j) {
				return nil
			}
			return next
		}, ops
	case 4:
		s0, s1, s2, s3 := steps[0], steps[1], steps[2], steps[3]
		rem1 := s1.c + s2.c + s3.c
		rem2 := s2.c + s3.c
		rem3 := s3.c
		return func(j *jmach) jop {
			if j.instrs+win > j.costThr {
				if s0.c != 0 && !j.charge(s0.c) {
					return nil
				}
				if !s0.fn(j) {
					return nil
				}
				if s1.c != 0 && !j.charge(s1.c) {
					return nil
				}
				if !s1.fn(j) {
					return nil
				}
				if s2.c != 0 && !j.charge(s2.c) {
					return nil
				}
				if !s2.fn(j) {
					return nil
				}
				if s3.c != 0 && !j.charge(s3.c) {
					return nil
				}
				if !s3.fn(j) {
					return nil
				}
				return next
			}
			j.instrs += cTot
			if !s0.fn(j) {
				j.instrs -= rem1
				return nil
			}
			if !s1.fn(j) {
				j.instrs -= rem2
				return nil
			}
			if !s2.fn(j) {
				j.instrs -= rem3
				return nil
			}
			if !s3.fn(j) {
				return nil
			}
			return next
		}, ops
	default:
		s0, s1, s2, s3, s4 := steps[0], steps[1], steps[2], steps[3], steps[4]
		rem1 := s1.c + s2.c + s3.c + s4.c
		rem2 := s2.c + s3.c + s4.c
		rem3 := s3.c + s4.c
		rem4 := s4.c
		return func(j *jmach) jop {
			if j.instrs+win > j.costThr {
				if s0.c != 0 && !j.charge(s0.c) {
					return nil
				}
				if !s0.fn(j) {
					return nil
				}
				if s1.c != 0 && !j.charge(s1.c) {
					return nil
				}
				if !s1.fn(j) {
					return nil
				}
				if s2.c != 0 && !j.charge(s2.c) {
					return nil
				}
				if !s2.fn(j) {
					return nil
				}
				if s3.c != 0 && !j.charge(s3.c) {
					return nil
				}
				if !s3.fn(j) {
					return nil
				}
				if s4.c != 0 && !j.charge(s4.c) {
					return nil
				}
				if !s4.fn(j) {
					return nil
				}
				return next
			}
			j.instrs += cTot
			if !s0.fn(j) {
				j.instrs -= rem1
				return nil
			}
			if !s1.fn(j) {
				j.instrs -= rem2
				return nil
			}
			if !s2.fn(j) {
				j.instrs -= rem3
				return nil
			}
			if !s3.fn(j) {
				j.instrs -= rem4
				return nil
			}
			if !s4.fn(j) {
				return nil
			}
			return next
		}, ops
	}
}

// jexec2D is the captured 2-D fast-path access shared by the fused
// digrams that start with a plain opLoad*2.
type jexec2D struct {
	areg   int32
	r0, r1 int32
	acc    uint8io
	ai     jdim2
}

func (b *jitBuilder) build1Exec2D(in *instr) *jexec2D {
	return &jexec2D{
		areg: in.a,
		r0:   int32(uint64(in.imm) >> 32),
		r1:   int32(uint32(in.imm)),
		acc:  accIO(in.op, opLoadI2),
		ai:   b.arr2(in.c),
	}
}

func (o *jexec2D) exec(j *jmach) bool {
	v0 := j.ireg[o.r0]
	if v0 < o.ai.lo0 || v0 > o.ai.hi0 {
		j.fault(interp.SubscriptError(v0, o.ai.name, o.ai.lo0, o.ai.hi0, 1))
		return false
	}
	v1 := j.ireg[o.r1]
	if v1 < o.ai.lo1 || v1 > o.ai.hi1 {
		j.fault(interp.SubscriptError(v1, o.ai.name, o.ai.lo1, o.ai.hi1, 2))
		return false
	}
	cell := o.ai.baseAdj + v0*o.ai.size1 + v1
	switch o.acc {
	case jLoadI:
		j.ireg[o.areg] = j.icel[cell]
	case jLoadF:
		j.freg[o.areg] = j.fcel[cell]
	case jStoreI:
		j.icel[cell] = j.ireg[o.areg]
	default:
		j.fcel[cell] = j.freg[o.areg]
	}
	return true
}

// stepExec returns a step function for the opcodes whose bodies are
// already factored as captured-operand executors — the building block
// of the generic digram and run combinators — plus the executor's own
// worst-case internal deferred charge (the amount it may j.charge or
// commit on top of the dispatch cost during one exec), which the run
// combinator folds into its budget window. Branches, calls, and the
// trivial inline ops return nil (the trivial ones aren't worth a
// dispatch through a func value; the hot ones among them get
// handwritten combinators above).
func (b *jitBuilder) stepExec(in *instr) (func(*jmach) bool, uint64) {
	switch in.op {
	case opCheck:
		return b.newCheck(in).exec, 0
	case opCheckPair:
		return b.newCheckPair(in).exec, 0
	case opCheckBlock:
		o := b.newCheckBlock(in)
		return o.exec, o.totDC
	case opCkAdd:
		// Eliminated-check stand-in (rce.go): counter add only, so fused
		// runs through a fast loop body stay fused. opRangeGuard is a
		// branch and deliberately has no step — it can never be fused.
		n := uint64(in.a)
		return func(j *jmach) bool { j.checks += n; return true }, 0
	case opC1LoadI1, opC1LoadF1, opC1StoreI1, opC1StoreF1,
		opCPLoadI1, opCPLoadF1, opCPStoreI1, opCPStoreF1,
		opCP2LoadI1, opCP2LoadF1, opCP2StoreI1, opCP2StoreF1:
		o := b.newChk1Acc(in)
		return o.exec, o.dc
	case opCPQLoadI2, opCPQLoadF2, opCPQStoreI2, opCPQStoreF2:
		o := b.newCPQAcc(in)
		return o.exec, o.dc
	case opBinStoreI1, opBinStoreF1:
		return b.newBinStore1(in).exec, 0
	case opCPBinStoreI1, opCPBinStoreF1:
		o := b.newCPBinStore1(in)
		return o.exec, o.dc
	case opCPQBinStoreI2, opCPQBinStoreF2:
		o := b.newCPQBinStore2(in)
		return o.exec, o.dc
	case opLoadBinF1:
		o := b.newLoadBinF1(in)
		return o.exec, o.dc
	case opLLBinF1:
		o := b.newLLBinF1(in)
		return o.exec, o.dc1 + o.dc2
	case opLoadBinF2:
		o := b.newLoadBinF2(in)
		return o.exec, o.dc
	case opBinStoreF2:
		return b.newBinStoreF2(in).exec, 0
	case opBinBinStoreF1:
		return b.newBinBinStoreF1(in).exec, 0
	case opBinBinStoreF2:
		return b.newBinBinStoreF2(in).exec, 0
	case opLoadI2, opLoadF2, opStoreI2, opStoreF2:
		return b.build1Exec2D(in).exec, 0
	case opBinBinF:
		o := b.newBinBinF(in)
		return func(j *jmach) bool { o.exec(j); return true }, 0
	case opMovI:
		a, src := in.a, in.b
		return func(j *jmach) bool { j.ireg[a] = j.ireg[src]; return true }, 0
	case opMovF:
		a, src := in.a, in.b
		return func(j *jmach) bool { j.freg[a] = j.freg[src]; return true }, 0
	case opAddI:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.ireg[a] = j.ireg[l] + j.ireg[r]; return true }, 0
	case opSubI:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.ireg[a] = j.ireg[l] - j.ireg[r]; return true }, 0
	case opMulI:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.ireg[a] = j.ireg[l] * j.ireg[r]; return true }, 0
	case opAddF:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.freg[a] = j.freg[l] + j.freg[r]; return true }, 0
	case opSubF:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.freg[a] = j.freg[l] - j.freg[r]; return true }, 0
	case opMulF:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.freg[a] = j.freg[l] * j.freg[r]; return true }, 0
	case opDivF:
		a, l, r := in.a, in.b, in.c
		return func(j *jmach) bool { j.freg[a] = j.freg[l] / j.freg[r]; return true }, 0
	}
	return nil, 0
}
