package codegen

// vec.go — vector-at-a-time expression kernels.
//
// The Slot closure tree (expr.go, ops.go) runs once per row. For the UDF
// bodies dataframe pipelines are made of — numeric arithmetic, comparisons
// and boolean combinations over typed columns (this file), the string
// methods, slices, parses and formats of data cleaning (vecstr.go), and
// straight-line or branching statement bodies over locals (vecstmt.go) —
// this package compiles the same typed AST into a program that runs once
// per batch: each node loops over whole colvec payload slices ([]int64,
// []float64, []bool, string spans, null bitmaps) at the rows of a
// selection vector.
//
// Values live in dense registers indexed by absolute batch row, like
// colvec's derived vectors, so a column load is free (the register is the
// column's payload). Boolean expressions compile to selection
// refinement: a predicate maps an ascending selection to the ascending
// subset where it is true, so the right side of `and` only ever sees rows
// the left side accepted — Python's short-circuit evaluation falls out of
// the data flow.
//
// A vector kernel never raises. Any row on which the row closure would
// raise or leave the normal case (null operand, zero divisor, guard miss)
// is marked instead, excluded from the result and reported in
// VecState.Bail; the caller re-runs exactly those rows through the row
// closure, which produces the exception code and accounting it always
// did. UDFs are pure, so replay is safe, and marking too many rows is
// always correct — the compiler only has to guarantee that an unmarked
// row computes the row closure's value bit for bit. It mirrors the row
// closures' operand promotion rules to do so, and reports "not
// vectorizable" (nil program) at the first node outside its grammar;
// the caller then keeps the row closure. Where None is an ordinary value
// — a truth test, == and !=, is None, a return — a None cell of an
// Option column is decided like any other (optValue), not marked.

import (
	"math"
	"slices"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// argCol is the column index standing for a UDF's bare scalar argument;
// each run binds it to the kernel's argument column.
const argCol = -1

// ---- runtime state -------------------------------------------------------

// VecState is the scratch memory vector programs run in: value
// registers, selection buffers and the bail marks. One state serves any
// number of programs run one after another (a task owns one); it grows
// to the largest program and batch it has seen and then stops
// allocating.
type VecState struct {
	cols []*colvec.Vec
	arg  int

	i   [][]int64
	f   [][]float64
	b   [][]bool
	str [][]string
	s   [][]int32

	// arena holds the bytes string producers built during the current
	// run; string registers alias it. Reset by begin, so a register's
	// strings are valid only until the state's next run.
	arena []byte

	// loc holds the bindings of the running body's locals, saved the
	// bindings of its enclosing ifs (vecstmt.go); nulls lists the rows of
	// the current run that returned None.
	loc, saved []vecOperand
	nulls      []int32

	// mark flags the rows of the current run that must be replayed;
	// marked counts them. finish moves them to bail in selection order
	// and clears the flags.
	mark   []bool
	marked int
	bail   []int32

	// term is the operand the last VecFold.Select left for Fold*.
	term vecOperand
}

// NewVecState returns an empty state.
func NewVecState() *VecState { return &VecState{} }

// Bail lists, in ascending row order, the rows of the last run's
// selection the program did not compute. Valid until the next run.
func (st *VecState) Bail() []int32 { return st.bail }

func (st *VecState) col(c int) *colvec.Vec {
	if c == argCol {
		return st.cols[st.arg]
	}
	return st.cols[c]
}

func (st *VecState) markBail(r int32) {
	if !st.mark[r] {
		st.mark[r] = true
		st.marked++
	}
}

func growRegs[T any](regs [][]T, k, n int) [][]T {
	for len(regs) < k {
		regs = append(regs, nil)
	}
	for j := 0; j < k; j++ {
		if len(regs[j]) < n {
			regs[j] = make([]T, n)
		}
	}
	return regs
}

// vecProg is what every vector program shares: its register demand, the
// columns it reads payloads of, and the guards it must check.
type vecProg struct {
	nI, nF, nB, nStr, nS int
	loads                []vecLoad
	guards               []vecGuard
	// formats are the integer formats of the body's literal `%` and
	// .format nodes, in walk order.
	formats []*pyvalue.IntFormat
}

// vecLoad is one payload read: column col is indexed as kind.
type vecLoad struct {
	col  int
	kind types.Kind
}

// begin binds the state to one batch and sizes it for p. It reports
// false — every row of sel listed in Bail — when a column's vector is
// not of the kind the program was typed against; the schema makes that
// impossible, and replaying the batch is the answer that is right anyway.
func (st *VecState) begin(p *vecProg, cols []*colvec.Vec, arg, n int, sel []int32) bool {
	st.cols, st.arg = cols, arg
	st.i = growRegs(st.i, p.nI, n)
	st.f = growRegs(st.f, p.nF, n)
	st.b = growRegs(st.b, p.nB, n)
	st.str = growRegs(st.str, p.nStr, n)
	st.s = growRegs(st.s, p.nS, n)
	if len(st.mark) < n {
		st.mark = make([]bool, n)
	}
	st.bail, st.arena, st.nulls = st.bail[:0], st.arena[:0], st.nulls[:0]
	for _, ld := range p.loads {
		if st.col(ld.col).Kind != ld.kind {
			st.bail = append(st.bail, sel...)
			return false
		}
	}
	p.checkGuards(st, sel)
	return true
}

// finish moves the marked rows of sel into Bail (ascending, like sel) and
// appends the unmarked rows of res to out.
//
//tuplex:kernel
func (st *VecState) finish(sel, res, out []int32) []int32 {
	if st.marked == 0 {
		return append(out, res...)
	}
	for _, r := range res {
		if !st.mark[r] {
			out = append(out, r)
		}
	}
	for _, r := range sel {
		if st.mark[r] {
			st.mark[r] = false
			st.bail = append(st.bail, r)
		}
	}
	st.marked = 0
	return out
}

// ---- guards --------------------------------------------------------------

// vecGuard is one sampled-constraint precondition of the UDF (see
// UDF.Call): rows failing it never run specialized code.
type vecGuard struct {
	col    int
	isRng  bool
	lo, hi int64
	want   rows.Slot
}

//tuplex:kernel
func (p *vecProg) checkGuards(st *VecState, sel []int32) {
	for gi := range p.guards {
		g := &p.guards[gi]
		v := st.col(g.col)
		if g.isRng && v.Kind == types.KindI64 {
			vals := v.I
			nullable := v.Nullable && !v.AllValid()
			for _, r := range sel {
				if x := vals[r]; x < g.lo || x > g.hi || (nullable && v.Nulls.Get(int(r))) {
					st.markBail(r)
				}
			}
			continue
		}
		for _, r := range sel {
			s := v.Slot(int(r))
			ok := false
			if g.isRng {
				ok = s.Tag == types.KindI64 && s.I >= g.lo && s.I <= g.hi
			} else if s.Tag == g.want.Tag {
				ok = s.Tag == types.KindNull || rows.Equal(s, g.want)
			}
			if !ok {
				st.markBail(r)
			}
		}
	}
}

// compileVecGuards translates the UDF's prologue guards. rowMode mirrors
// compileGuard: guard columns index the row parameter's columns, or —
// for a bare scalar parameter — column 0 is the argument itself.
func compileVecGuards(gs []dataflow.Guard, rowMode bool) ([]vecGuard, bool) {
	var out []vecGuard
	for _, g := range gs {
		vg := vecGuard{col: g.Col}
		if !rowMode {
			if g.Col != 0 {
				return nil, false
			}
			vg.col = argCol
		}
		if g.Const != nil {
			vg.want = rows.FromValue(g.Const)
		} else {
			vg.isRng, vg.lo, vg.hi = true, g.Lo, g.Hi
		}
		out = append(out, vg)
	}
	return out, true
}

// ---- operands ------------------------------------------------------------

type vecSrc uint8

const (
	srcConst vecSrc = iota
	srcCol
	srcReg
)

// vecOperand is an evaluated value: where its dense payload lives.
type vecOperand struct {
	kind types.Kind // KindI64, KindF64, KindBool or KindStr; KindNull is the constant None
	src  vecSrc
	idx  int // column (srcCol) or register (srcReg)
	ci   int64
	cf   float64
	cb   bool
	cs   string
	// opt marks an Option column read whose null cells are still in the
	// selection, unmarked (optValue); the column's bitmap says which.
	opt bool
}

func (st *VecState) i64s(o *vecOperand) []int64 {
	switch o.src {
	case srcCol:
		return st.col(o.idx).I
	case srcReg:
		return st.i[o.idx]
	}
	return nil
}

func (st *VecState) f64s(o *vecOperand) []float64 {
	switch o.src {
	case srcCol:
		return st.col(o.idx).F
	case srcReg:
		return st.f[o.idx]
	}
	return nil
}

func (st *VecState) bools(o *vecOperand) []bool {
	switch o.src {
	case srcCol:
		return st.col(o.idx).B
	case srcReg:
		return st.b[o.idx]
	}
	return nil
}

// ---- kernels -------------------------------------------------------------
//
// Every loop that runs per row lives in one of the functions below.

type vnum interface{ int64 | float64 }

type cmpOp uint8

const (
	cmpLT cmpOp = iota
	cmpLE
	cmpGT
	cmpGE
	cmpEQ
	cmpNE
)

func cmpOpOf(op string) (cmpOp, bool) {
	switch op {
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	case "==":
		return cmpEQ, true
	case "!=":
		return cmpNE, true
	}
	return 0, false
}

// mirror returns the operator m with (a op b) == (b m a).
func (o cmpOp) mirror() cmpOp {
	switch o {
	case cmpLT:
		return cmpGT
	case cmpLE:
		return cmpGE
	case cmpGT:
		return cmpLT
	case cmpGE:
		return cmpLE
	}
	return o
}

func cmpScalar[T vnum](op cmpOp, a, b T) bool {
	switch op {
	case cmpLT:
		return a < b
	case cmpLE:
		return a <= b
	case cmpGT:
		return a > b
	case cmpGE:
		return a >= b
	case cmpEQ:
		return a == b
	}
	return a != b
}

// b2i is the branch-free bool→int the selection kernels advance their
// write cursor with: a mispredicted branch per row would cost more than
// the comparison.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// vecCmpVC writes the rows of sel where a[r] op c to out and returns
// their count. len(out) >= len(sel).
//
//tuplex:kernel
func vecCmpVC[T vnum](op cmpOp, a []T, c T, sel, out []int32) int {
	k := 0
	switch op {
	case cmpLT:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] < c)
		}
	case cmpLE:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] <= c)
		}
	case cmpGT:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] > c)
		}
	case cmpGE:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] >= c)
		}
	case cmpEQ:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] == c)
		}
	default:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] != c)
		}
	}
	return k
}

// vecCmpVV is vecCmpVC against a second vector.
//
//tuplex:kernel
func vecCmpVV[T vnum](op cmpOp, a, b []T, sel, out []int32) int {
	switch op {
	case cmpGT:
		op, a, b = cmpLT, b, a
	case cmpGE:
		op, a, b = cmpLE, b, a
	}
	k := 0
	switch op {
	case cmpLT:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] < b[r])
		}
	case cmpLE:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] <= b[r])
		}
	case cmpEQ:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] == b[r])
		}
	default:
		for _, r := range sel {
			out[k] = r
			k += b2i(a[r] != b[r])
		}
	}
	return k
}

type arithOp uint8

const (
	opAdd arithOp = iota
	opSub
	opMul
	opTrueDiv
	opFloorDiv
	opMod
)

// vecArith computes out[r] = a[r] op b[r] for + - *, where either side
// may be the constant ac/bc instead of a vector.
//
//tuplex:kernel
func vecArith[T vnum](op arithOp, out, a, b []T, ac, bc T, sel []int32) {
	switch {
	case b == nil:
		switch op {
		case opAdd:
			for _, r := range sel {
				out[r] = a[r] + bc
			}
		case opSub:
			for _, r := range sel {
				out[r] = a[r] - bc
			}
		default:
			for _, r := range sel {
				out[r] = a[r] * bc
			}
		}
	case a == nil:
		switch op {
		case opAdd:
			for _, r := range sel {
				out[r] = ac + b[r]
			}
		case opSub:
			for _, r := range sel {
				out[r] = ac - b[r]
			}
		default:
			for _, r := range sel {
				out[r] = ac * b[r]
			}
		}
	default:
		switch op {
		case opAdd:
			for _, r := range sel {
				out[r] = a[r] + b[r]
			}
		case opSub:
			for _, r := range sel {
				out[r] = a[r] - b[r]
			}
		default:
			for _, r := range sel {
				out[r] = a[r] * b[r]
			}
		}
	}
}

// vecDivF computes the float division family; a zero divisor marks the
// row (ZeroDivisionError on the row path).
//
//tuplex:kernel
func vecDivF(op arithOp, out, a, b []float64, sel []int32, st *VecState) {
	switch op {
	case opTrueDiv:
		for _, r := range sel {
			if d := b[r]; d != 0 {
				out[r] = a[r] / d
			} else {
				st.markBail(r)
			}
		}
	case opFloorDiv:
		for _, r := range sel {
			if d := b[r]; d != 0 {
				out[r] = math.Floor(a[r] / d)
			} else {
				st.markBail(r)
			}
		}
	default:
		for _, r := range sel {
			if d := b[r]; d != 0 {
				out[r] = pyvalue.FloorModFloat(a[r], d)
			} else {
				st.markBail(r)
			}
		}
	}
}

// vecDivI is the integer // and %.
//
//tuplex:kernel
func vecDivI(op arithOp, out, a, b []int64, sel []int32, st *VecState) {
	if op == opFloorDiv {
		for _, r := range sel {
			if d := b[r]; d != 0 {
				out[r] = pyvalue.FloorDivInt(a[r], d)
			} else {
				st.markBail(r)
			}
		}
		return
	}
	for _, r := range sel {
		if d := b[r]; d != 0 {
			out[r] = pyvalue.FloorModInt(a[r], d)
		} else {
			st.markBail(r)
		}
	}
}

//tuplex:kernel
func vecNeg[T vnum](out, a []T, sel []int32) {
	for _, r := range sel {
		out[r] = -a[r]
	}
}

//tuplex:kernel
func vecI2F(out []float64, a []int64, sel []int32) {
	for _, r := range sel {
		out[r] = float64(a[r])
	}
}

//tuplex:kernel
func vecCopy[T any](out, a []T, sel []int32) {
	for _, r := range sel {
		out[r] = a[r]
	}
}

//tuplex:kernel
func vecFill[T any](out []T, c T, sel []int32) {
	for _, r := range sel {
		out[r] = c
	}
}

// vecSelTrue writes the rows of sel where b[r] to out.
//
//tuplex:kernel
func vecSelTrue(b []bool, sel, out []int32) int {
	k := 0
	for _, r := range sel {
		out[k] = r
		k += b2i(b[r])
	}
	return k
}

// vecSelNull writes the rows of sel whose null bit equals want to out.
//
//tuplex:kernel
func vecSelNull(nulls colvec.Bitmap, want bool, sel, out []int32) int {
	k := 0
	for _, r := range sel {
		out[k] = r
		k += b2i(nulls.Get(int(r)) == want)
	}
	return k
}

//tuplex:kernel
func (st *VecState) markNulls(nulls colvec.Bitmap, sel []int32) {
	for _, r := range sel {
		if nulls.Get(int(r)) {
			st.markBail(r)
		}
	}
}

// nullsOf is the null bitmap of an opt operand, or nil when none of its
// cells is None.
func (st *VecState) nullsOf(o *vecOperand) colvec.Bitmap {
	if !o.opt {
		return nil
	}
	if v := st.col(o.idx); v.Nullable && !v.AllValid() {
		return v.Nulls
	}
	return nil
}

// SubtractSel writes sel minus sub to out and returns the count; both
// ascending, sub a subset of sel, len(out) >= len(sel)-len(sub).
//
//tuplex:kernel
func SubtractSel(sel, sub, out []int32) int {
	k, j := 0, 0
	for _, r := range sel {
		if j < len(sub) && sub[j] == r {
			j++
			continue
		}
		out[k] = r
		k++
	}
	return k
}

// MergeSel writes the ascending union of the disjoint ascending
// selections a and b to out (len(out) >= len(a)+len(b), aliasing neither)
// and returns the count.
//
//tuplex:kernel
func MergeSel(a, b, out []int32) int {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	k += copy(out[k:], b[j:])
	return k
}

type foldOp uint8

const (
	foldAdd foldOp = iota
	foldSub
	foldMul
	foldMin
	foldMax
)

// vecFold folds t at rows into acc, strictly in the order of rows, with
// the accumulator in a register. min/max keep the accumulator on ties,
// like pyvalue.MinMax.
//
//tuplex:kernel
func vecFold[T vnum](op foldOp, acc T, t []T, rows []int32) T {
	switch op {
	case foldAdd:
		for _, r := range rows {
			acc += t[r]
		}
	case foldSub:
		for _, r := range rows {
			acc -= t[r]
		}
	case foldMul:
		for _, r := range rows {
			acc *= t[r]
		}
	case foldMin:
		for _, r := range rows {
			if v := t[r]; v < acc {
				acc = v
			}
		}
	default:
		for _, r := range rows {
			if v := t[r]; v > acc {
				acc = v
			}
		}
	}
	return acc
}

// ---- the walker ----------------------------------------------------------

// vecEnv is what a walk needs to know about its UDF — all of it state the
// compiled UDF retains anyway, so a vector program adds nothing to a
// cached plan's footprint.
type vecEnv struct {
	info    *inference.Info
	flow    *dataflow.Result
	globals map[string]rows.Slot
	// row names the row-typed parameter, scalar the bare-value one (""
	// when the UDF has none); acc is the aggregate accumulator, which no
	// vector expression may read.
	row, scalar, acc string
	// locals are the names the body assigns (vecstmt.go).
	locals []string
}

// vecWalk evaluates a typed expression over one batch, node by node: the
// typed AST is the program. The same walk serves twice. With st == nil
// (check mode, once per UDF at compile time) it runs no kernel: it only
// decides whether every node is inside the grammar — reporting ok=false
// at the first that is not — and counts the registers a run will take.
// With a state it runs each node's kernel over the selection it is handed.
// Register numbers are handed out in walk order, which depends on the AST
// alone, so a run reuses exactly the registers the check counted.
type vecWalk struct {
	env  *vecEnv
	st   *VecState
	prog vecProg

	// checked is the program a run executes (nil in check mode) and nFmt
	// the walk's position in its formats.
	checked *vecProg
	nFmt    int
	// why is, in check mode, the first node found outside the grammar.
	why string

	// Statement bodies (vecstmt.go): the result kind and whether None is a
	// result, the current bindings of the locals and the stack of saved
	// ones, and the result so far — res at the rows resRows, from nret
	// return sites.
	kind     types.Kind
	nullable bool
	loc      []vecOperand
	saved    []vecOperand
	res      vecOperand
	resRows  []int32
	nret     int
}

func (w *vecWalk) run() bool { return w.st != nil }

// decline records why a check-mode walk is about to fail; the first
// reason, the innermost node, is the one reported.
func (w *vecWalk) decline(why string) {
	if w.why == "" {
		w.why = why
	}
}

// no declines at node n.
func (w *vecWalk) no(n pyast.Node) (vecOperand, bool) {
	w.decline(nodeLabel(n))
	return vecOperand{}, false
}

func (w *vecWalk) noSel(n pyast.Node) ([]int32, bool) {
	w.decline(nodeLabel(n))
	return nil, false
}

func (w *vecWalk) regI() int { w.prog.nI++; return w.prog.nI - 1 }
func (w *vecWalk) regF() int { w.prog.nF++; return w.prog.nF - 1 }
func (w *vecWalk) regB() int { w.prog.nB++; return w.prog.nB - 1 }

// buf hands out a selection buffer (run mode: the buffer itself).
func (w *vecWalk) buf() []int32 {
	w.prog.nS++
	if w.st == nil {
		return nil
	}
	return w.st.s[w.prog.nS-1]
}

// usable rejects nodes whose row-path compile is an exception exit. A
// run walks only what the check accepted and skips the lookups.
func (w *vecWalk) usable(n pyast.Node) bool {
	if w.run() {
		return true
	}
	if _, failed := w.env.info.Failed[n]; failed {
		return false
	}
	if x, ok := n.(pyast.Expr); ok && w.env.flow != nil {
		if _, raises := w.env.flow.AlwaysRaises(x); raises {
			return false
		}
	}
	return true
}

func isVecNum(k types.Kind) bool { return k == types.KindI64 || k == types.KindF64 }

// isVecKind reports the kinds a vector program computes and returns.
func isVecKind(k types.Kind) bool {
	return isVecNum(k) || k == types.KindBool || k == types.KindStr
}

func constOperand(s rows.Slot) (vecOperand, bool) {
	switch s.Tag {
	case types.KindI64:
		return vecOperand{kind: types.KindI64, ci: s.I}, true
	case types.KindF64:
		return vecOperand{kind: types.KindF64, cf: s.F}, true
	case types.KindBool:
		return vecOperand{kind: types.KindBool, cb: s.B}, true
	case types.KindStr:
		return vecOperand{kind: types.KindStr, cs: s.S}, true
	}
	return vecOperand{}, false
}

// load reads column col, typed as x. The payload is the operand. A column
// typed Option[kind] comes back opt, its null cells unmarked: where None
// is an ordinary value (optValue) the consumer routes them, and anywhere
// else value marks them for replay. A column of any other type has its
// stray null cells marked here, and a column the sample typed Null (a
// KindNull vector) is the constant None.
func (w *vecWalk) load(x pyast.Expr, col int, sel []int32) (vecOperand, bool) {
	t := x.Type()
	k := t.Unwrap().Kind()
	if !isVecKind(k) && k != types.KindNull {
		return w.no(x)
	}
	if ld := (vecLoad{col: col, kind: k}); !w.run() && !slices.Contains(w.prog.loads, ld) {
		w.prog.loads = append(w.prog.loads, ld)
	}
	a := vecOperand{kind: k, src: srcCol, idx: col, opt: true}
	switch {
	case k == types.KindNull:
		return vecOperand{kind: k}, true
	case t.IsOption():
		return a, true
	}
	return w.settle(a, sel), true
}

// column resolves x to the column it reads, if it is a plain column
// reference: r['c'] / r[i] on the row parameter or the bare scalar
// parameter itself.
func (w *vecWalk) column(x pyast.Expr) (int, bool) {
	switch x := x.(type) {
	case *pyast.Name:
		if w.env.scalar != "" && x.Ident == w.env.scalar {
			return argCol, true
		}
	case *pyast.Subscript:
		if nm, ok := x.X.(*pyast.Name); ok && x.RowIdx >= 0 && w.env.row != "" && nm.Ident == w.env.row {
			return x.RowIdx, true
		}
	}
	return 0, false
}

// value evaluates x over sel as a dense value of kind I64, F64, Bool or
// Str. None is an operand of no operator here: the null rows of an Option
// operand are marked at this read, over this selection (in the then-arm
// of `if x:` none is left), and a constant None declines.
func (w *vecWalk) value(x pyast.Expr, sel []int32) (vecOperand, bool) {
	a, ok := w.optValue(x, sel)
	switch {
	case !ok:
		return a, false
	case a.kind == types.KindNull:
		return w.no(x)
	}
	return w.settle(a, sel), true
}

// settle marks the null rows of an opt operand over sel and returns the
// operand as a value.
func (w *vecWalk) settle(a vecOperand, sel []int32) vecOperand {
	if w.run() {
		if nulls := w.st.nullsOf(&a); nulls != nil {
			w.st.markNulls(nulls, sel)
		}
	}
	a.opt = false
	return a
}

// optValue evaluates x where None is an ordinary value: a truth test, ==
// and !=, is None, a return, an assignment. An Option column, read
// directly or through a local bound to it, comes back opt, its null rows
// still in sel; a column the sample typed Null, and the literal None, are
// the constant None. Anything else is a value.
func (w *vecWalk) optValue(x pyast.Expr, sel []int32) (vecOperand, bool) {
	if !w.usable(x) {
		return w.no(x)
	}
	if col, ok := w.column(x); ok {
		return w.load(x, col, sel)
	}
	switch x := x.(type) {
	case *pyast.NoneLit:
		return vecOperand{kind: types.KindNull}, true
	case *pyast.NumLit:
		if x.IsFloat {
			return vecOperand{kind: types.KindF64, cf: x.F}, true
		}
		return vecOperand{kind: types.KindI64, ci: x.I}, true
	case *pyast.BoolLit:
		return vecOperand{kind: types.KindBool, cb: x.B}, true
	case *pyast.StrLit:
		return vecOperand{kind: types.KindStr, cs: x.S}, true
	case *pyast.Name:
		return w.name(x)
	case *pyast.UnaryOp:
		if x.Op == "not" {
			return w.boolValue(x, sel)
		}
		return w.unary(x, sel)
	case *pyast.BinOp:
		return w.binary(x, x.Op, x.Left, x.Right, x.Type().Kind(), sel)
	case *pyast.BoolOp:
		// Python defines the operator's value as one of its operands: it is
		// its truth only when every operand is a bool.
		for _, e := range x.Xs {
			if e.Type().Kind() != types.KindBool {
				return w.no(x)
			}
		}
		return w.boolValue(x, sel)
	case *pyast.Compare:
		return w.boolValue(x, sel)
	case *pyast.IfExpr:
		if x.Type().Kind() == types.KindBool {
			return w.boolValue(x, sel)
		}
		return w.selectValue(x, sel)
	case *pyast.Subscript:
		return w.strSubscript(x, sel)
	case *pyast.Slice:
		return w.strSliceExpr(x, sel)
	case *pyast.Call:
		return w.call(x, sel)
	}
	return w.no(x)
}

// name reads a local's binding or a module constant. Parameters shadow
// globals; the only parameter a vector expression may name is the
// column() one. A local typed Option[kind] may be bound to an opt operand
// or to a value of kind (then it holds no None).
func (w *vecWalk) name(x *pyast.Name) (vecOperand, bool) {
	if i := w.env.local(x.Ident); i >= 0 {
		a := w.loc[i]
		switch t := x.Type(); {
		case a.kind == 0:
			w.decline("local " + x.Ident + " read before assignment")
			return a, false
		case t.Unwrap().Kind() != a.kind:
			w.decline("local " + x.Ident + " type-unstable")
			return a, false
		}
		return a, true
	}
	if w.env.binds(x.Ident) || x.Ident == w.env.acc {
		return w.no(x)
	}
	if g, ok := w.env.globals[x.Ident]; ok && g.Tag == x.Type().Kind() {
		if a, ok := constOperand(g); ok {
			return a, true
		}
	}
	return w.no(x)
}

// boolValue evaluates a bool-typed composite as a predicate and
// materializes it into a dense bool register.
func (w *vecWalk) boolValue(x pyast.Expr, sel []int32) (vecOperand, bool) {
	t, ok := w.pred(x, sel)
	if !ok {
		return vecOperand{}, false
	}
	reg := w.regB()
	if w.run() {
		out := w.st.b[reg]
		vecFill(out, false, sel)
		vecFill(out, true, t)
	}
	return vecOperand{kind: types.KindBool, src: srcReg, idx: reg}, true
}

func (w *vecWalk) unary(x *pyast.UnaryOp, sel []int32) (vecOperand, bool) {
	if x.Op != "-" && x.Op != "+" {
		return w.no(x)
	}
	a, ok := w.value(x.X, sel)
	if !ok || !isVecNum(a.kind) || x.Type().Kind() != a.kind {
		return w.no(x)
	}
	if x.Op == "+" {
		return a, true
	}
	if a.src == srcConst {
		a.ci, a.cf = -a.ci, -a.cf
		return a, true
	}
	if a.kind == types.KindI64 {
		reg := w.regI()
		if w.run() {
			vecNeg(w.st.i[reg], w.st.i64s(&a), sel)
		}
		return vecOperand{kind: a.kind, src: srcReg, idx: reg}, true
	}
	reg := w.regF()
	if w.run() {
		vecNeg(w.st.f[reg], w.st.f64s(&a), sel)
	}
	return vecOperand{kind: a.kind, src: srcReg, idx: reg}, true
}

// toF64 promotes an I64 operand the way slotF64 does: float64(v).
func (w *vecWalk) toF64(a vecOperand, sel []int32) vecOperand {
	if a.kind == types.KindF64 {
		return a
	}
	if a.src == srcConst {
		return vecOperand{kind: types.KindF64, cf: float64(a.ci)}
	}
	reg := w.regF()
	if w.run() {
		vecI2F(w.st.f[reg], w.st.i64s(&a), sel)
	}
	return vecOperand{kind: types.KindF64, src: srcReg, idx: reg}
}

// dense turns a constant into a filled register, for the kernel shapes
// that only come in vector form.
func (w *vecWalk) dense(a vecOperand, sel []int32) vecOperand {
	if a.src != srcConst {
		return a
	}
	if a.kind == types.KindI64 {
		reg := w.regI()
		if w.run() {
			vecFill(w.st.i[reg], a.ci, sel)
		}
		return vecOperand{kind: a.kind, src: srcReg, idx: reg}
	}
	reg := w.regF()
	if w.run() {
		vecFill(w.st.f[reg], a.cf, sel)
	}
	return vecOperand{kind: a.kind, src: srcReg, idx: reg}
}

// binary evaluates `left op right` — node x, a BinOp or the target of an
// augmented assignment — whose result has kind resK: string + and %, or
// numeric arithmetic.
func (w *vecWalk) binary(x pyast.Node, op string, left, right pyast.Expr, resK types.Kind, sel []int32) (vecOperand, bool) {
	if isStrType(left.Type()) {
		if resK != types.KindStr {
			return w.no(x)
		}
		return w.strBinary(x, op, left, right, sel)
	}
	return w.arith(x, op, left, right, resK, sel)
}

// arith evaluates + - * / // % with binOp's typing: an I64 result means
// integer arithmetic on two I64 operands, anything else float arithmetic
// on float64-promoted operands.
func (w *vecWalk) arith(x pyast.Node, opName string, left, right pyast.Expr, resK types.Kind, sel []int32) (vecOperand, bool) {
	var op arithOp
	switch opName {
	case "+":
		op = opAdd
	case "-":
		op = opSub
	case "*":
		op = opMul
	case "/":
		op = opTrueDiv
	case "//":
		op = opFloorDiv
	case "%":
		op = opMod
	default:
		return w.no(x)
	}
	a, ok := w.value(left, sel)
	if !ok || !isVecNum(a.kind) {
		return w.no(x)
	}
	b, ok := w.value(right, sel)
	if !ok || !isVecNum(b.kind) {
		return w.no(x)
	}
	switch {
	case resK == types.KindI64 && op != opTrueDiv && a.kind == types.KindI64 && b.kind == types.KindI64:
	case resK == types.KindF64 && (op == opTrueDiv || a.kind == types.KindF64 || b.kind == types.KindF64):
		a, b = w.toF64(a, sel), w.toF64(b, sel)
	default:
		return w.no(x)
	}
	// The + - * kernels take a constant on either side; the division
	// family (and constant ⊕ constant) gets filled registers.
	if op >= opTrueDiv {
		a, b = w.dense(a, sel), w.dense(b, sel)
	} else if b.src == srcConst {
		a = w.dense(a, sel)
	}
	st := w.st
	if resK == types.KindI64 {
		reg := w.regI()
		switch {
		case !w.run():
		case op >= opTrueDiv:
			vecDivI(op, st.i[reg], st.i64s(&a), st.i64s(&b), sel, st)
		default:
			vecArith(op, st.i[reg], st.i64s(&a), st.i64s(&b), a.ci, b.ci, sel)
		}
		return vecOperand{kind: resK, src: srcReg, idx: reg}, true
	}
	reg := w.regF()
	switch {
	case !w.run():
	case op >= opTrueDiv:
		vecDivF(op, st.f[reg], st.f64s(&a), st.f64s(&b), sel, st)
	default:
		vecArith(op, st.f[reg], st.f64s(&a), st.f64s(&b), a.cf, b.cf, sel)
	}
	return vecOperand{kind: resK, src: srcReg, idx: reg}, true
}

// liveArms returns the arms of x the row path compiles: both, or only
// the one inference left alive.
func (w *vecWalk) liveArms(x *pyast.IfExpr) (then, els bool) {
	switch w.env.info.Dead[x] {
	case inference.DeadThen:
		return false, true
	case inference.DeadElse:
		return true, false
	}
	return true, true
}

// split evaluates cond over sel and returns the rows where it holds and
// the rows where it does not.
func (w *vecWalk) split(cond pyast.Expr, sel []int32) (t, f []int32, ok bool) {
	t, ok = w.pred(cond, sel)
	f = w.buf()
	if ok && w.run() {
		f = f[:SubtractSel(sel, t, f)]
	}
	return t, f, ok
}

// selectValue evaluates a numeric or string `a if c else b`: c splits the
// selection, each arm is computed only on its side and moved into the
// result register. The row path returns the taken arm's slot
// unconverted, so both arms must already have the expression's type.
func (w *vecWalk) selectValue(x *pyast.IfExpr, sel []int32) (vecOperand, bool) {
	then, els := w.liveArms(x)
	if !then {
		return w.value(x.Else, sel)
	}
	if !els {
		return w.value(x.Then, sel)
	}
	k := x.Type().Kind()
	if !isVecNum(k) && k != types.KindStr || x.Then.Type().Kind() != k || x.Else.Type().Kind() != k {
		return w.no(x)
	}
	t, f, ok := w.split(x.Cond, sel)
	if !ok {
		return vecOperand{}, false
	}
	a, ok := w.value(x.Then, t)
	if !ok || a.kind != k {
		return w.no(x)
	}
	b, ok := w.value(x.Else, f)
	if !ok || b.kind != k {
		return w.no(x)
	}
	out := w.reg(k)
	if w.run() {
		w.store(out, a, t)
		w.store(out, b, f)
	}
	return out, true
}

// moveInto writes an operand (vector a, or constant c when a is nil) to
// out at sel.
func moveInto[T any](out, a []T, c T, sel []int32) {
	if a == nil {
		vecFill(out, c, sel)
	} else {
		vecCopy(out, a, sel)
	}
}

// ---- predicates ----------------------------------------------------------
//
// A predicate refines an ascending selection to the ascending subset
// where it holds. The result is sel itself or a buffer of the state.

// truth refines sel to the rows where a is truthy. None is falsy: the
// null rows of an opt operand, and every row of the constant None, go to
// the false side.
func (w *vecWalk) truth(a vecOperand, sel []int32) []int32 {
	if a.src == srcConst {
		if a.cb || a.ci != 0 || a.cf != 0 || a.cs != "" {
			return sel
		}
		return sel[:0]
	}
	if a.opt {
		sel = w.present(a, sel)
	}
	out := w.buf()
	if !w.run() {
		return nil
	}
	switch a.kind {
	case types.KindBool:
		return out[:vecSelTrue(w.st.bools(&a), sel, out)]
	case types.KindI64:
		return out[:vecCmpVC(cmpNE, w.st.i64s(&a), 0, sel, out)]
	case types.KindStr:
		return out[:vecStrTruthy(w.st.strs(&a), sel, out)]
	}
	return out[:vecCmpVC(cmpNE, w.st.f64s(&a), 0, sel, out)]
}

// present refines sel to the rows where the opt operand a is not None.
func (w *vecWalk) present(a vecOperand, sel []int32) []int32 {
	out := w.buf()
	if !w.run() {
		return nil
	}
	if nulls := w.st.nullsOf(&a); nulls != nil {
		return out[:vecSelNull(nulls, false, sel, out)]
	}
	return sel
}

// pred evaluates x over sel as a selection refinement. x must be bool,
// i64, f64 or str typed, an Option of one of those, or None: the types
// whose truthiness the row path tests monomorphically, and None, which is
// false.
func (w *vecWalk) pred(x pyast.Expr, sel []int32) ([]int32, bool) {
	if !w.usable(x) {
		return w.noSel(x)
	}
	switch x := x.(type) {
	case *pyast.Compare:
		return w.compare(x, sel)
	case *pyast.BoolOp:
		return w.boolOp(x, sel)
	case *pyast.UnaryOp:
		if x.Op == "not" {
			_, f, ok := w.split(x.X, sel)
			return f, ok
		}
	case *pyast.IfExpr:
		if x.Type().Kind() == types.KindBool {
			return w.selectPred(x, sel)
		}
	}
	if k := x.Type().Unwrap().Kind(); !isVecKind(k) && k != types.KindNull {
		return w.noSel(x)
	}
	a, ok := w.optValue(x, sel)
	if !ok {
		return nil, false
	}
	return w.truth(a, sel), true
}

// boolOp evaluates the truth of and/or: `a and b` is true where a is
// and then b is, whichever operand Python returns. `and` chains the
// refinements; `or` offers each operand only the rows every earlier one
// rejected and merges what they accept.
func (w *vecWalk) boolOp(x *pyast.BoolOp, sel []int32) ([]int32, bool) {
	if len(x.Xs) == 0 {
		return w.noSel(x)
	}
	if x.Op == "and" {
		for _, e := range x.Xs {
			var ok bool
			if sel, ok = w.pred(e, sel); !ok {
				return nil, false
			}
		}
		return sel, true
	}
	acc, ok := w.pred(x.Xs[0], sel)
	if !ok {
		return nil, false
	}
	for _, e := range x.Xs[1:] {
		rest, union := w.buf(), w.buf()
		if w.run() {
			rest = rest[:SubtractSel(sel, acc, rest)]
		}
		t, ok := w.pred(e, rest)
		if !ok {
			return nil, false
		}
		if w.run() {
			acc = union[:MergeSel(acc, t, union)]
		}
	}
	return acc, true
}

// selectPred evaluates a bool-typed `a if c else b`.
func (w *vecWalk) selectPred(x *pyast.IfExpr, sel []int32) ([]int32, bool) {
	then, els := w.liveArms(x)
	if !then {
		return w.pred(x.Else, sel)
	}
	if !els {
		return w.pred(x.Then, sel)
	}
	if x.Then.Type().Kind() != types.KindBool || x.Else.Type().Kind() != types.KindBool {
		return w.noSel(x)
	}
	t, f, ok := w.split(x.Cond, sel)
	if !ok {
		return nil, false
	}
	a, ok := w.pred(x.Then, t)
	if !ok {
		return nil, false
	}
	b, ok := w.pred(x.Else, f)
	if !ok {
		return nil, false
	}
	union := w.buf()
	if w.run() {
		union = union[:MergeSel(a, b, union)]
	}
	return union, true
}

// compare evaluates a (possibly chained) numeric or string comparison, a
// None identity test, or an == / != a side of which may be None. A chain
// a op1 b op2 c evaluates each operand once and offers b op2 c only the
// rows where a op1 b held.
func (w *vecWalk) compare(x *pyast.Compare, sel []int32) ([]int32, bool) {
	if x.Type().Kind() != types.KindBool || len(x.Ops) == 0 || len(x.Ops) != len(x.Rest) {
		return w.noSel(x)
	}
	if len(x.Ops) == 1 {
		switch x.Ops[0] {
		case "is", "is not":
			return w.isNone(x, sel)
		case "==", "!=":
			if mayBeNone(x.First.Type()) || mayBeNone(x.Rest[0].Type()) {
				return w.eqNone(x, sel)
			}
		}
	}
	nStr := 0
	for i := -1; i < len(x.Rest); i++ {
		t := x.First.Type()
		if i >= 0 {
			t = x.Rest[i].Type()
		}
		if isStrType(t) {
			nStr++
		} else if !isVecNum(t.Unwrap().Kind()) {
			return w.noSel(x)
		}
	}
	if nStr != 0 && nStr != len(x.Rest)+1 {
		return w.noSel(x)
	}
	a, ok := w.value(x.First, sel)
	if !ok {
		return nil, false
	}
	for i, op := range x.Ops {
		b, ok := w.value(x.Rest[i], sel)
		if !ok {
			return nil, false
		}
		if sel, ok = w.cmpStep(x, op, a, b, sel); !ok {
			return nil, false
		}
		a = b
	}
	return sel, true
}

func mayBeNone(t types.Type) bool { return t.IsOption() || t.Kind() == types.KindNull }

// cmpStep refines sel by one comparison of two values: two strings (the
// substring tests included), or two numbers — two ints exactly, anything
// with a float side as float64.
func (w *vecWalk) cmpStep(x *pyast.Compare, opName string, a, b vecOperand, sel []int32) ([]int32, bool) {
	if a.kind == types.KindStr && b.kind == types.KindStr {
		op, ok := strCmpOpOf(opName)
		if !ok {
			return w.noSel(x)
		}
		out := w.buf()
		if !w.run() {
			return nil, true
		}
		return out[:vecStrCmp(op, w.st.strs(&a), w.st.strs(&b), sel, out)], true
	}
	op, ok := cmpOpOf(opName)
	if !ok || !isVecNum(a.kind) || !isVecNum(b.kind) {
		return w.noSel(x)
	}
	if a.kind != b.kind {
		a, b = w.toF64(a, sel), w.toF64(b, sel)
	}
	out := w.buf()
	switch {
	case !w.run():
		return nil, true
	case a.kind == types.KindF64:
		return out[:cmpOperands(op, w.st.f64s(&a), w.st.f64s(&b), a.cf, b.cf, sel, out)], true
	}
	return out[:cmpOperands(op, w.st.i64s(&a), w.st.i64s(&b), a.ci, b.ci, sel, out)], true
}

// cmpOperands dispatches one comparison step on which sides are
// constants (nil vectors).
func cmpOperands[T vnum](op cmpOp, a, b []T, ac, bc T, sel, out []int32) int {
	switch {
	case a == nil && b == nil:
		if cmpScalar(op, ac, bc) {
			return copy(out, sel)
		}
		return 0
	case b == nil:
		return vecCmpVC(op, a, bc, sel, out)
	case a == nil:
		return vecCmpVC(op.mirror(), b, ac, sel, out)
	}
	return vecCmpVV(op, a, b, sel, out)
}

// eqNone evaluates `a == b` / `a != b` where a side may be None. None
// equals no value: against a side that is never None, the rows where the
// other side is None fail == and pass !=, and the rest compare as values.
// When both sides may be None the rows where an Option column is None are
// marked instead, and the constant None against another None declines.
func (w *vecWalk) eqNone(x *pyast.Compare, sel []int32) ([]int32, bool) {
	a, ok := w.optValue(x.First, sel)
	if !ok {
		return nil, false
	}
	b, ok := w.optValue(x.Rest[0], sel)
	if !ok {
		return nil, false
	}
	if b.opt || b.kind == types.KindNull {
		a, b = b, a // == and != are symmetric
	}
	ne := x.Ops[0] == "!="
	switch {
	case b.kind == types.KindNull || a.kind == types.KindNull && b.opt:
		return w.noSel(x)
	case a.kind == types.KindNull:
		if ne {
			return sel, true
		}
		return sel[:0], true
	case b.opt:
		return w.cmpStep(x, x.Ops[0], w.settle(a, sel), w.settle(b, sel), sel)
	}
	in := w.present(a, sel)
	a.opt = false
	eq, ok := w.cmpStep(x, x.Ops[0], a, b, in)
	if !ok || !ne {
		return eq, ok
	}
	none, union := w.buf(), w.buf()
	if !w.run() {
		return nil, true
	}
	none = none[:SubtractSel(sel, in, none)]
	return union[:MergeSel(eq, none, union)], true
}

// isNone evaluates `x is None` / `x is not None` for a column x, straight
// off its null bitmap (no payload is read, so any column kind works), or
// for a local x, off its binding.
func (w *vecWalk) isNone(x *pyast.Compare, sel []int32) ([]int32, bool) {
	side := x.First
	if _, ok := side.(*pyast.NoneLit); ok {
		side = x.Rest[0]
	} else if _, ok := x.Rest[0].(*pyast.NoneLit); !ok {
		return w.noSel(x)
	}
	if !w.usable(side) {
		return w.noSel(x)
	}
	var a vecOperand
	if col, ok := w.column(side); ok {
		a = vecOperand{src: srcCol, idx: col, opt: true} // only its bitmap is read
	} else if nm, ok := side.(*pyast.Name); ok && w.env.local(nm.Ident) >= 0 {
		if a, ok = w.name(nm); !ok {
			return nil, false
		}
	} else {
		return w.noSel(x)
	}
	wantNull := x.Ops[0] == "is"
	out := w.buf()
	if !w.run() {
		return nil, true
	}
	allNull := a.kind == types.KindNull || a.opt && w.st.col(a.idx).Kind == types.KindNull
	nulls := w.st.nullsOf(&a)
	if allNull || nulls == nil {
		if allNull == wantNull {
			return sel, true
		}
		return sel[:0], true
	}
	return out[:vecSelNull(nulls, wantNull, sel, out)], true
}

// ---- programs ------------------------------------------------------------

// reason is why a failed check-mode walk declined.
func (w *vecWalk) reason() string {
	if w.why == "" {
		return "outside the grammar"
	}
	return w.why
}

// diverged reports a run-mode walk failing where its check-mode twin
// succeeded — the two are one code path, so only a bug gets here.
func diverged() { panic("codegen: vector walk diverged from its check") }

// VecExpr is the vector program of a one-parameter UDF whose body is
// inside the grammar: Filter runs it as a predicate, Eval as a derived
// column.
type VecExpr struct {
	env *vecEnv
	// x is the returned expression of a body that is one return statement
	// (every lambda); nil for a statement body.
	x        pyast.Expr
	kind     types.Kind
	nullable bool
	prog     vecProg
}

// Kind is the kind of the values the program computes: KindBool, KindI64,
// KindF64 or KindStr. A program whose UDF returns Option[kind] also
// produces nulls.
func (p *VecExpr) Kind() types.Kind { return p.kind }

// walk runs the body over sel and returns the result: the operand holds
// the value of the rows in rows, and st.nulls the rows that returned None.
func (p *VecExpr) walk(w *vecWalk, sel []int32) (res vecOperand, rows []int32, ok bool) {
	w.kind, w.nullable = p.kind, p.nullable
	if p.x == nil {
		ok = w.body(p.env.info.Fn.Body, sel)
		return w.res, w.resRows, ok
	}
	if !w.ret(p.x, sel) {
		return res, nil, false
	}
	return w.res, w.resRows, w.nret > 0
}

// Filter appends to out the rows of sel (ascending) where the body's
// result is truthy. cols is the UDF's input view, arg the column a bare
// scalar parameter is bound to, n the batch's row count. Rows in
// st.Bail() were not decided.
func (p *VecExpr) Filter(st *VecState, cols []*colvec.Vec, arg, n int, sel, out []int32) []int32 {
	if !st.begin(&p.prog, cols, arg, n, sel) {
		return out
	}
	w := vecWalk{env: p.env, st: st, checked: &p.prog}
	var res []int32
	if p.x != nil && !p.nullable {
		// A bare expression refines the selection directly, without
		// materializing its value.
		var ok bool
		if res, ok = w.pred(p.x, sel); !ok {
			diverged()
		}
	} else {
		v, rows, ok := p.walk(&w, sel)
		if !ok {
			diverged()
		}
		res = w.truth(v, rows)
	}
	return st.finish(sel, res, out)
}

// Eval writes the body's result into dst (of the program's kind, grown to
// n) at the rows of sel. Rows in st.Bail() were not computed.
func (p *VecExpr) Eval(st *VecState, cols []*colvec.Vec, arg, n int, sel []int32, dst *colvec.Vec) {
	if dst.Kind != p.kind {
		panic("codegen: VecExpr.Eval into a vector of another kind")
	}
	if !st.begin(&p.prog, cols, arg, n, sel) {
		return
	}
	w := vecWalk{env: p.env, st: st, checked: &p.prog}
	v, rows, ok := p.walk(&w, sel)
	if !ok || v.kind != p.kind {
		diverged()
	}
	switch p.kind {
	case types.KindI64:
		moveInto(dst.I, st.i64s(&v), v.ci, rows)
	case types.KindF64:
		moveInto(dst.F, st.f64s(&v), v.cf, rows)
	case types.KindBool:
		moveInto(dst.B, st.bools(&v), v.cb, rows)
	default:
		st.storeStrs(dst, st.strs(&v), rows)
	}
	for _, r := range st.nulls {
		if !st.mark[r] { // a marked row's replay writes the cell, null or not
			dst.SetNull(int(r))
		}
	}
	st.finish(sel, nil, nil)
}

// VecFold is the vector program of an aggregate step UDF whose body
// matches the fold table:
//
//	acc ⊕ t                     ⊕ ∈ + - *  (also t + acc, t * acc)
//	acc ⊕ t if c else acc       and the mirrored  acc if c else acc ⊕ t
//	min(acc, t)  max(acc, t)    unconditional or conditional alike
//
// with t and c free of acc. Select evaluates c and t over a batch; Fold*
// then folds in selection order with the accumulator in a register, so
// the result is the row path's, bit for bit.
type VecFold struct {
	env    *vecEnv
	prog   vecProg
	kind   types.Kind
	op     foldOp
	cond   pyast.Expr // nil: the step applies to every row
	negate bool       // the step applies where cond is false
	term   pyast.Expr
}

// Kind is the accumulator kind, KindI64 or KindF64.
func (f *VecFold) Kind() types.Kind { return f.kind }

// walk evaluates the condition and the term; applies are the rows the
// step applies to.
func (f *VecFold) walk(w *vecWalk, sel []int32) (applies []int32, term vecOperand, ok bool) {
	applies = sel
	if f.cond != nil {
		t, rest, ok := w.split(f.cond, sel)
		if !ok {
			return nil, term, false
		}
		if applies = t; f.negate {
			applies = rest
		}
	}
	term, ok = w.value(f.term, applies)
	if !ok || !isVecNum(term.kind) {
		return nil, term, false
	}
	if f.kind == types.KindF64 {
		term = w.toF64(term, applies)
	} else if term.kind != types.KindI64 {
		return nil, term, false
	}
	return applies, w.dense(term, applies), true
}

// Select evaluates the fold's condition and term and returns the rows
// (ascending) the fold applies to; on every other unbailed row of sel
// the step returns its accumulator unchanged. The result — and the term
// Fold* reads — is valid until the state's next run.
func (f *VecFold) Select(st *VecState, cols []*colvec.Vec, arg, n int, sel []int32) []int32 {
	if !st.begin(&f.prog, cols, arg, n, sel) {
		return nil
	}
	w := vecWalk{env: f.env, st: st, checked: &f.prog}
	applies, term, ok := f.walk(&w, sel)
	if !ok {
		diverged()
	}
	st.term = term
	return st.finish(sel, applies, w.buf()[:0])
}

// FoldI64 folds the term at rows (a sub-slice of Select's result) into
// acc, in order.
func (f *VecFold) FoldI64(st *VecState, acc int64, rows []int32) int64 {
	return vecFold(f.op, acc, st.i64s(&st.term), rows)
}

// FoldF64 is FoldI64 for a float accumulator.
func (f *VecFold) FoldF64(st *VecState, acc float64, rows []int32) float64 {
	return vecFold(f.op, acc, st.f64s(&st.term), rows)
}

// vectorize attaches the UDF's vector program when its body is inside the
// grammar, and otherwise records in VecDecline what put it outside. It
// runs after the guards are fixed and consults only dep-free facts (typing
// failures, inference's dead arms, always-raises proofs), so it can
// neither add a guard nor rest on one it does not check.
func (c *compiler) vectorize(u *UDF) {
	fn := c.info.Fn
	if !c.opts.Specialize {
		u.VecDecline = "unspecialized"
		return
	}
	env := &vecEnv{info: c.info, flow: c.opts.Flow, globals: c.globals}
	bind := func(param int) {
		if c.info.ParamTypes[param].Kind() == types.KindRow {
			env.row = fn.Params[param]
		} else {
			env.scalar = fn.Params[param]
		}
	}
	// x is the whole body when that is one return statement.
	var x pyast.Expr
	if len(fn.Body) == 1 {
		if ret, ok := fn.Body[0].(*pyast.Return); ok {
			if !(&vecWalk{env: env}).usable(ret) {
				u.VecDecline = "Return failed typing"
				return
			}
			x = ret.X
		}
	}
	switch len(fn.Params) {
	case 1:
		bind(0)
		u.Vec, u.VecDecline = vecExprOf(env, x, u.Guards)
	case 2:
		env.acc = fn.Params[0]
		bind(1)
		switch {
		case len(u.Guards) > 0:
			u.VecDecline = "guarded aggregate"
		case x == nil:
			u.VecDecline = "aggregate body is not one expression"
		default:
			if u.Fold = matchFold(env, x, c.info.ParamTypes[0]); u.Fold == nil {
				u.VecDecline = "outside the fold table"
			}
		}
	default:
		u.VecDecline = "not a one-parameter UDF"
	}
}

// vecExprOf checks a one-parameter UDF's body — the expression x, or the
// statements of env's function when x is nil — against the grammar.
func vecExprOf(env *vecEnv, x pyast.Expr, gs []dataflow.Guard) (*VecExpr, string) {
	guards, ok := compileVecGuards(gs, env.row != "")
	if !ok {
		return nil, "guard on another parameter"
	}
	ret := env.info.ReturnType
	e := &VecExpr{env: env, x: x, kind: ret.Unwrap().Kind(), nullable: ret.IsOption()}
	if !isVecKind(e.kind) {
		return nil, "returns " + ret.String()
	}
	if x == nil {
		if env.locals, ok = assignedLocals(env.info.Fn.Body); !ok {
			return nil, "assignment to a subscript or tuple"
		}
	}
	// One check serves Eval and Filter: as a predicate a bare expression
	// walks the nodes its value walk does (less the bool result register);
	// every other filter tests the result's truth, with one more buffer.
	w := &vecWalk{env: env}
	if v, _, ok := e.walk(w, nil); !ok || v.kind != e.kind {
		return nil, w.reason()
	}
	e.prog = w.prog
	e.prog.nS++
	e.prog.guards = guards
	return e, ""
}

// matchFold matches an aggregate body against the fold table.
func matchFold(env *vecEnv, body pyast.Expr, accT types.Type) *VecFold {
	w := vecWalk{env: env}
	isAcc := func(x pyast.Expr) bool {
		nm, ok := x.(*pyast.Name)
		return ok && nm.Ident == env.acc && w.usable(x)
	}
	k := accT.Kind()
	if !isVecNum(k) || body.Type().Kind() != k || !w.usable(body) {
		return nil
	}
	f := &VecFold{env: env, kind: k}
	step := body
	if ife, ok := body.(*pyast.IfExpr); ok {
		if then, els := w.liveArms(ife); !then || !els {
			return nil
		}
		switch {
		case isAcc(ife.Else):
			step = ife.Then
		case isAcc(ife.Then):
			step, f.negate = ife.Else, true
		default:
			return nil
		}
		if step.Type().Kind() != k || !w.usable(step) {
			return nil
		}
		f.cond = ife.Cond
	}
	switch s := step.(type) {
	case *pyast.BinOp:
		switch s.Op {
		case "+":
			f.op = foldAdd
		case "-":
			f.op = foldSub
		case "*":
			f.op = foldMul
		default:
			return nil
		}
		switch {
		case isAcc(s.Left):
			f.term = s.Right
		case f.op != foldSub && isAcc(s.Right): // + and * commute
			f.term = s.Left
		default:
			return nil
		}
	case *pyast.Call:
		nm, ok := s.Fn.(*pyast.Name)
		if !ok || len(s.Args) != 2 || len(s.KwArgs) != 0 || !isAcc(s.Args[0]) {
			return nil
		}
		if _, shadowed := env.globals[nm.Ident]; shadowed || slices.Contains(env.info.Fn.Params, nm.Ident) {
			return nil
		}
		switch nm.Ident {
		case "min":
			f.op = foldMin
		case "max":
			f.op = foldMax
		default:
			return nil
		}
		// MinMax returns the chosen argument unconverted, so the term
		// must already be of the accumulator's type.
		if s.Args[1].Type().Kind() != k {
			return nil
		}
		f.term = s.Args[1]
	default:
		return nil
	}
	check := &vecWalk{env: env}
	if _, _, ok := f.walk(check, nil); !ok {
		return nil
	}
	check.buf() // Select's result buffer
	f.prog = check.prog
	return f
}
