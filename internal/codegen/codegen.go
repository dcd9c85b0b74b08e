// Package codegen compiles typed UDF ASTs into specialized closures over
// unboxed slots — Tuplex's normal-case code path (§4.3).
//
// Where the paper's prototype emits LLVM IR and JIT-compiles it, this
// implementation emits two forms of the same typed AST. The row form is a
// tree of Go closures, one per node, compiled in one pass: int and bool
// code returns int64s and bools, everything else rows.Slot registers; no
// heap boxing, operators specialized on the operands' static types,
// exceptions as integer return codes (the paper's own choice, §5). The vector form (vec.go) runs the UDF bodies
// of its grammar once per batch; the row form serves every other body
// and replays the rows a vector program hands back. The asymmetry both
// create against the boxed interpreter is the mechanism every Tuplex
// speedup in §6 rests on.
//
// Typing failures recorded by the inference pass compile into exception
// exits: at runtime the affected row leaves the fast path with a return
// code and is retried on the general-case path, never aborting the
// pipeline (§4.3 "Exception handling"). A failed operator still
// evaluates its operands first and raises what the boxed operator
// raises on them, as Python does.
//
// Operators are pyvalue.Op codes. The row and vector forms switch on
// them to emit one closure or one loop per operator; whatever is not
// specialized goes through pyvalue.Binary, Unary and Compare, the one
// boxed dispatch the interpreter and dataflow's folds share.
//
// With Options.Specialize=false the generator instead emits generic
// closures that box each operand and dispatch through pyvalue — the
// "LLVM optimizers disabled" configuration of the paper's factor
// analysis (Fig. 11): same code structure, none of the specialization,
// and no vector form.
package codegen

import (
	"fmt"
	"sort"

	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/strarena"
	"github.com/gotuplex/tuplex/internal/types"
)

// ECode is the return-code representation of a Python exception on the
// compiled paths (0 = no exception).
type ECode = pyvalue.ExcKind

// Frame is the mutable register file for one UDF invocation. Engines
// allocate one Frame per task and reuse it across rows (the paper's
// thread-local region allocator serves the same purpose).
type Frame struct {
	Slots []rows.Slot
	// Rand powers random.choice on the fast path.
	Rand *pyre.PRNG
	// Scratch is reusable byte scratch for string-building operations
	// (case folding, replace, percent formatting). Leaf-use only: a
	// closure may use it strictly between — never across — nested
	// closure calls, so contents never survive past one operation.
	Scratch []byte
	// Arena interns result strings of hot string operations so each
	// produced string does not cost its own heap allocation.
	Arena strarena.Arena
}

// NewFrame returns a frame with capacity for n slots.
func NewFrame(n int) *Frame {
	return &Frame{Slots: make([]rows.Slot, n), Rand: pyre.NewPRNG(0x7457_1e4)}
}

type ctl uint8

const (
	ctlNext ctl = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

type exprFn = func(fr *Frame) (rows.Slot, ECode)

// The typed forms of an int-like and of a truth-tested expression.
type (
	i64Fn  = func(*Frame) (int64, ECode)
	boolFn = func(*Frame) (bool, ECode)
)
type stmtFn func(fr *Frame) (ctl, rows.Slot, ECode)

// Options tunes code generation.
type Options struct {
	// Specialize enables unboxed operator code and the vector programs.
	// When false, operators box through pyvalue (Fig. 11's "without LLVM
	// optimizers" arm).
	Specialize bool
	// Flow, when non-nil, supplies dataflow facts for dead-branch
	// pruning, constant folding and check elision. Facts resting on
	// sampled value statistics are consumed through queries that mark
	// their columns load-bearing; Compile turns those into runtime
	// guards in the UDF prologue, so a row violating a sampled
	// constraint exits to the general path instead of observing a
	// mis-specialized result.
	Flow *dataflow.Result
}

// DefaultOptions is fully optimized generation.
func DefaultOptions() Options { return Options{Specialize: true} }

// OptStats counts the optimization decisions made while compiling one
// UDF; surfaced per-UDF through the trace "analyze" span.
type OptStats struct {
	// BranchesPruned counts If/IfExpr arms dropped via dataflow facts
	// (beyond what inference's own static pruning found).
	BranchesPruned int
	// ConstsFolded counts non-literal expressions compiled to constants.
	ConstsFolded int
	// ChecksElided counts runtime checks skipped: zero-divisor tests,
	// negative-exponent tests and Option null checks.
	ChecksElided int
	// RaiseExits counts expressions compiled directly into exception
	// exits because they provably always raise.
	RaiseExits int
}

// guardFn tests one guard against the parameters already in the frame.
type guardFn func(fr *Frame) bool

// UDF is a compiled normal-case UDF.
type UDF struct {
	Info   *inference.Info
	nslots int
	params []int
	body   []stmtFn
	// clearSlots lists slots that may be read before assignment and must
	// be reset between calls (so stale state can't leak and unbound
	// reads raise NameError). Slots proven assigned-before-use are
	// skipped — the analog of LLVM promoting locals to registers.
	clearSlots []int
	// guards are the compiled runtime preconditions for sample-seeded
	// facts this UDF's code consumed; Guards describes them.
	guards []guardFn
	// Guards lists the sampled-constraint preconditions compiled into
	// the prologue.
	Guards []dataflow.Guard
	// Opt reports the optimization decisions made during compilation.
	Opt OptStats
	// Vec is the vector-at-a-time form of a one-parameter UDF, Fold of an
	// aggregate step UDF (vec.go); nil when the body is outside the
	// vectorizable grammar, in which case callers keep calling the
	// closures above once per row.
	Vec  *VecExpr
	Fold *VecFold
	// VecDecline says, when both are nil, what kept the body on the row
	// path: the first node outside the grammar ("Call:re.search", "For",
	// "local p type-unstable").
	VecDecline string
}

// NumSlots reports the frame size this UDF requires.
func (u *UDF) NumSlots() int { return u.nslots }

// ReturnType is the UDF's inferred normal-case result type.
func (u *UDF) ReturnType() types.Type { return u.Info.ReturnType }

// Call runs the UDF on args using (and resizing) fr. Args are typically
// row slots wrapped per parameter; see rows.Tuple for row parameters.
func (u *UDF) Call(fr *Frame, args []rows.Slot) (rows.Slot, ECode) {
	u.enter(fr)
	for i, p := range u.params {
		fr.Slots[p] = args[i]
	}
	return u.run(fr)
}

// Call1 invokes a one-parameter UDF with the argument written straight
// into its parameter slot (the hot-path form used by per-row and batch
// kernels): no args slice, one Slot copy.
func (u *UDF) Call1(fr *Frame, arg rows.Slot) (rows.Slot, ECode) {
	u.enter(fr)
	fr.Slots[u.params[0]] = arg
	return u.run(fr)
}

// Call2 invokes a two-parameter UDF (aggregate step) the same way.
func (u *UDF) Call2(fr *Frame, a, b rows.Slot) (rows.Slot, ECode) {
	u.enter(fr)
	fr.Slots[u.params[0]], fr.Slots[u.params[1]] = a, b
	return u.run(fr)
}

// enter sizes the frame for u and resets the slots a body could read
// before assigning; the caller then writes the parameters.
func (u *UDF) enter(fr *Frame) {
	if cap(fr.Slots) < u.nslots {
		fr.Slots = make([]rows.Slot, u.nslots)
		return
	}
	fr.Slots = fr.Slots[:u.nslots]
	for _, s := range u.clearSlots {
		fr.Slots[s] = rows.Slot{} // Tag 0 = unassigned
	}
}

// run checks the guards against the parameters in the frame and executes
// the body.
func (u *UDF) run(fr *Frame) (rows.Slot, ECode) {
	for _, g := range u.guards {
		if !g(fr) {
			// A sampled constraint the specialization rests on does not
			// hold for this row: bail to the general path before any
			// specialized code runs.
			return rows.Slot{}, pyvalue.ExcUnsupported
		}
	}
	for _, st := range u.body {
		c, v, ec := st(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		if c == ctlReturn {
			return v, 0
		}
	}
	return rows.Null(), 0
}

// compiler carries compilation state.
type compiler struct {
	info    *inference.Info
	opts    Options
	slots   map[string]int
	globals map[string]rows.Slot
	stats   OptStats
}

// Compile builds the fast-path closures for a typed UDF. globals supplies
// module-level constants as pre-unboxed slots (may be nil). Compilation
// fails only on structural problems; per-node typing failures compile
// into exception exits instead.
func Compile(info *inference.Info, globals map[string]pyvalue.Value, opts Options) (*UDF, error) {
	c := &compiler{
		info:    info,
		opts:    opts,
		slots:   map[string]int{},
		globals: map[string]rows.Slot{},
	}
	for k, v := range globals {
		c.globals[k] = rows.FromValue(v)
	}
	u := &UDF{Info: info}
	for _, p := range info.Fn.Params {
		u.params = append(u.params, c.slot(p))
	}
	// Pre-allocate assigned names (function-wide local scoping).
	pyast.InspectStmts(info.Fn.Body, func(n pyast.Node) bool {
		switch n := n.(type) {
		case *pyast.Assign:
			c.slotTarget(n.Target)
		case *pyast.AugAssign:
			c.slotTarget(n.Target)
		case *pyast.For:
			c.slotTarget(n.Var)
		case *pyast.ListComp:
			c.slot(n.Var)
		}
		return true
	})
	body, err := c.stmts(info.Fn.Body)
	if err != nil {
		return nil, err
	}
	u.body = body
	u.nslots = len(c.slots)
	u.clearSlots = c.slotsToClear(info.Fn)
	u.Opt = c.stats
	if opts.Flow != nil {
		// All fact queries have been made; compile the guards they
		// obligate. Column indices refer to the row parameter's columns
		// (or, for a single scalar parameter, to the argument itself).
		rowMode := len(u.params) == 1 && info.ParamTypes[0].Kind() == types.KindRow
		u.Guards = opts.Flow.RequiredGuards()
		for _, g := range u.Guards {
			u.guards = append(u.guards, compileGuard(g, rowMode, u.params))
		}
	}
	c.vectorize(u)
	return u, nil
}

// compileGuard builds the runtime precondition check for one guard over
// the parameter slots: column g.Col of the row parameter, or — without a
// row parameter — parameter g.Col itself.
func compileGuard(g dataflow.Guard, rowMode bool, params []int) guardFn {
	col := g.Col
	slot := func(fr *Frame) (*rows.Slot, bool) {
		if rowMode {
			row := &fr.Slots[params[0]]
			if col >= len(row.Seq) {
				return nil, false
			}
			return &row.Seq[col], true
		}
		if col >= len(params) {
			return nil, false
		}
		return &fr.Slots[params[col]], true
	}
	if g.Const != nil {
		want := rows.FromValue(g.Const)
		return func(fr *Frame) bool {
			s, ok := slot(fr)
			if !ok || s.Tag != want.Tag {
				return false
			}
			return s.Tag == types.KindNull || rows.Equal(*s, want)
		}
	}
	lo, hi := g.Lo, g.Hi
	return func(fr *Frame) bool {
		s, ok := slot(fr)
		return ok && s.Tag == types.KindI64 && s.I >= lo && s.I <= hi
	}
}

// flowDead reports a fact-derived dead arm for an If/IfExpr node.
func (c *compiler) flowDead(n pyast.Node) inference.Branch {
	if c.opts.Flow == nil {
		return inference.DeadNone
	}
	return c.opts.Flow.DeadBranch(n)
}

func (c *compiler) flowNonZero(x pyast.Expr) bool {
	return c.opts.Flow != nil && x != nil && c.opts.Flow.NonZero(x)
}

func (c *compiler) flowNonNegative(x pyast.Expr) bool {
	return c.opts.Flow != nil && x != nil && c.opts.Flow.NonNegative(x)
}

func (c *compiler) flowNonNull(x pyast.Expr) bool {
	return c.opts.Flow != nil && x != nil && c.opts.Flow.NonNull(x)
}

// decided reports x's outcome when it is fixed at compile time: an
// exception exit for a node inference recorded as failed, or for one the
// dataflow facts prove always raises, or a constant the facts prove.
// Every compile entry (expr, i64, truth) asks it first. Literals are
// left to the entries (already free), and so is a failed operator, which
// raises only once its operands have evaluated: a BinOp or UnaryOp
// compiles by raises, and a Compare's chain by compare, whose boxed steps
// raise where the boxed path does.
func (c *compiler) decided(x pyast.Expr) (rows.Slot, ECode, bool) {
	if f, ok := c.info.Failed[x]; ok {
		switch x.(type) {
		case *pyast.BinOp, *pyast.UnaryOp, *pyast.Compare:
			return rows.Slot{}, 0, false
		}
		return rows.Slot{}, pyvalue.ExcNamed(f.Raises), true
	}
	if c.opts.Flow == nil {
		return rows.Slot{}, 0, false
	}
	if k, ok := c.opts.Flow.AlwaysRaises(x); ok {
		c.stats.RaiseExits++
		return rows.Slot{}, k, true
	}
	switch x.(type) {
	case *pyast.NumLit, *pyast.StrLit, *pyast.BoolLit, *pyast.NoneLit:
		return rows.Slot{}, 0, false
	}
	v, ok := c.opts.Flow.Constant(x)
	if !ok {
		return rows.Slot{}, 0, false
	}
	c.stats.ConstsFolded++
	return rows.FromValue(v), 0, true
}

// local reports the frame slot of x when x reads a local or parameter
// that decided would not fold, so its consumer can read fr.Slots[s] in
// place instead of copying the slot out.
func (c *compiler) local(x pyast.Expr) (int, bool) {
	n, ok := x.(*pyast.Name)
	if !ok {
		return 0, false
	}
	s, ok := c.slots[n.Ident]
	if _, failed := c.info.Failed[n]; !ok || failed {
		return 0, false
	}
	if f := c.opts.Flow; f != nil {
		if _, raises := f.AlwaysRaises(n); raises {
			return 0, false
		}
		if _, konst := f.Constant(n); konst {
			return 0, false
		}
	}
	return s, true
}

// slotsToClear computes which non-parameter slots could be observed
// before assignment and therefore must be reset between calls. A local
// whose first top-level statement mention is a plain assignment is
// definitely-assigned before any later read; everything else (first
// mention inside a branch/loop, comprehension variables, reads) stays in
// the clear set.
func (c *compiler) slotsToClear(fn *pyast.Function) []int {
	isParam := map[string]bool{}
	for _, p := range fn.Params {
		isParam[p] = true
	}
	safe := map[string]bool{}
	for _, s := range fn.Body {
		as, ok := s.(*pyast.Assign)
		if !ok {
			break // conservatively stop at the first non-assignment
		}
		nm, ok := as.Target.(*pyast.Name)
		if !ok {
			break
		}
		// The RHS must not read any not-yet-safe local.
		unsafeRead := false
		pyast.Inspect(as.Value, func(n pyast.Node) bool {
			if r, isName := n.(*pyast.Name); isName {
				if _, isLocal := c.slots[r.Ident]; isLocal && !isParam[r.Ident] && !safe[r.Ident] {
					unsafeRead = true
				}
			}
			return true
		})
		if unsafeRead {
			break
		}
		safe[nm.Ident] = true
	}
	var clear []int
	for name, slot := range c.slots {
		if !isParam[name] && !safe[name] {
			clear = append(clear, slot)
		}
	}
	sort.Ints(clear)
	return clear
}

func (c *compiler) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.slots)
	c.slots[name] = s
	return s
}

func (c *compiler) slotTarget(t pyast.Expr) {
	switch t := t.(type) {
	case *pyast.Name:
		c.slot(t.Ident)
	case *pyast.TupleLit:
		for _, el := range t.Elts {
			if n, ok := el.(*pyast.Name); ok {
				c.slot(n.Ident)
			}
		}
	}
}

func (c *compiler) stmts(ss []pyast.Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(ss))
	for _, s := range ss {
		cs, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

func runStmts(fr *Frame, body []stmtFn) (ctl, rows.Slot, ECode) {
	for _, st := range body {
		ct, v, ec := st(fr)
		if ec != 0 || ct != ctlNext {
			return ct, v, ec
		}
	}
	return ctlNext, rows.Slot{}, 0
}

func (c *compiler) stmt(s pyast.Stmt) (stmtFn, error) {
	if _, failed := c.info.Failed[s]; failed {
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			return ctlNext, rows.Slot{}, pyvalue.ExcUnsupported
		}, nil
	}
	switch s := s.(type) {
	case *pyast.ExprStmt:
		x, err := c.expr(s.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			_, ec := x(fr)
			return ctlNext, rows.Slot{}, ec
		}, nil
	case *pyast.Assign:
		v, err := c.expr(s.Value)
		if err != nil {
			return nil, err
		}
		return c.assign(s.Target, v)
	case *pyast.AugAssign:
		comb, err := c.binOp(s.Op, s.Target, s.Value, s.Target.Type(), s.Value.Type(), s.Ty)
		if err != nil {
			return nil, err
		}
		return c.assign(s.Target, comb)
	case *pyast.Return:
		if s.X == nil {
			return func(fr *Frame) (ctl, rows.Slot, ECode) {
				return ctlReturn, rows.Null(), 0
			}, nil
		}
		x, err := c.expr(s.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			v, ec := x(fr)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			return ctlReturn, v, 0
		}, nil
	case *pyast.If:
		return c.ifStmt(s)
	case *pyast.For:
		return c.forStmt(s)
	case *pyast.While:
		cond, err := c.truth(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.stmts(s.Body)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (ctl, rows.Slot, ECode) {
			for iter := 0; ; iter++ {
				if iter > maxLoopIters {
					return ctlNext, rows.Slot{}, pyvalue.ExcUnsupported
				}
				t, ec := cond(fr)
				if ec != 0 {
					return ctlNext, rows.Slot{}, ec
				}
				if !t {
					return ctlNext, rows.Slot{}, 0
				}
				ct, v, ec := runStmts(fr, body)
				if ec != 0 {
					return ctlNext, rows.Slot{}, ec
				}
				if ct == ctlReturn {
					return ct, v, 0
				}
				if ct == ctlBreak {
					return ctlNext, rows.Slot{}, 0
				}
			}
		}, nil
	case *pyast.Pass:
		return func(fr *Frame) (ctl, rows.Slot, ECode) { return ctlNext, rows.Slot{}, 0 }, nil
	case *pyast.Break:
		return func(fr *Frame) (ctl, rows.Slot, ECode) { return ctlBreak, rows.Slot{}, 0 }, nil
	case *pyast.Continue:
		return func(fr *Frame) (ctl, rows.Slot, ECode) { return ctlContinue, rows.Slot{}, 0 }, nil
	default:
		return nil, fmt.Errorf("codegen: unsupported statement %T", s)
	}
}

// maxLoopIters bounds while-loops on the fast path; a UDF exceeding it is
// kicked to the exception path rather than hanging an executor.
const maxLoopIters = 10_000_000

func (c *compiler) ifStmt(s *pyast.If) (stmtFn, error) {
	// Statically pruned branches compile only the live arm (§4.7).
	dead := c.info.Dead[s]
	if dead == inference.DeadNone {
		if d := c.flowDead(s); d != inference.DeadNone {
			dead = d
			c.stats.BranchesPruned++
		}
	}
	switch dead {
	case inference.DeadThen:
		if s.Else == nil {
			return func(fr *Frame) (ctl, rows.Slot, ECode) { return ctlNext, rows.Slot{}, 0 }, nil
		}
		body, err := c.stmts(s.Else)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (ctl, rows.Slot, ECode) { return runStmts(fr, body) }, nil
	case inference.DeadElse:
		body, err := c.stmts(s.Then)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (ctl, rows.Slot, ECode) { return runStmts(fr, body) }, nil
	}
	cond, err := c.truth(s.Cond)
	if err != nil {
		return nil, err
	}
	then, err := c.stmts(s.Then)
	if err != nil {
		return nil, err
	}
	var els []stmtFn
	if s.Else != nil {
		if els, err = c.stmts(s.Else); err != nil {
			return nil, err
		}
	}
	return func(fr *Frame) (ctl, rows.Slot, ECode) {
		t, ec := cond(fr)
		if ec != 0 {
			return ctlNext, rows.Slot{}, ec
		}
		if t {
			return runStmts(fr, then)
		}
		if els != nil {
			return runStmts(fr, els)
		}
		return ctlNext, rows.Slot{}, 0
	}, nil
}

func (c *compiler) forStmt(s *pyast.For) (stmtFn, error) {
	body, err := c.stmts(s.Body)
	if err != nil {
		return nil, err
	}
	// Specialization: `for v in range(...)` compiles to a counting loop
	// with no list materialization.
	if rng, ok := rangeCall(s.Iter); ok {
		nm, isName := s.Var.(*pyast.Name)
		if isName {
			vslot := c.slot(nm.Ident)
			bounds, err := c.rangeBounds(rng)
			if err != nil {
				return nil, err
			}
			return func(fr *Frame) (ctl, rows.Slot, ECode) {
				start, stop, step, ec := bounds(fr)
				if ec != 0 {
					return ctlNext, rows.Slot{}, ec
				}
				for i := start; (step > 0 && i < stop) || (step < 0 && i > stop); i += step {
					fr.Slots[vslot] = rows.I64(i)
					ct, v, ec := runStmts(fr, body)
					if ec != 0 {
						return ctlNext, rows.Slot{}, ec
					}
					if ct == ctlReturn {
						return ct, v, 0
					}
					if ct == ctlBreak {
						break
					}
				}
				return ctlNext, rows.Slot{}, 0
			}, nil
		}
	}
	iter, err := c.expr(s.Iter)
	if err != nil {
		return nil, err
	}
	setVar, err := c.assignSetter(s.Var)
	if err != nil {
		return nil, err
	}
	iterT := s.Iter.Type().Unwrap()
	return func(fr *Frame) (ctl, rows.Slot, ECode) {
		it, ec := iter(fr)
		if ec != 0 {
			return ctlNext, rows.Slot{}, ec
		}
		elems, ec := iterateSlot(it, iterT)
		if ec != 0 {
			return ctlNext, rows.Slot{}, ec
		}
		for _, el := range elems {
			if ec := setVar(fr, el); ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			ct, v, ec := runStmts(fr, body)
			if ec != 0 {
				return ctlNext, rows.Slot{}, ec
			}
			if ct == ctlReturn {
				return ct, v, 0
			}
			if ct == ctlBreak {
				break
			}
		}
		return ctlNext, rows.Slot{}, 0
	}, nil
}

// iterateSlot expands an iterable slot into elements.
func iterateSlot(s rows.Slot, t types.Type) ([]rows.Slot, ECode) {
	switch s.Tag {
	case types.KindList, types.KindTuple:
		return s.Seq, 0
	case types.KindStr:
		out := make([]rows.Slot, len(s.S))
		for i := range s.S {
			out[i] = rows.Str(s.S[i : i+1])
		}
		return out, 0
	case types.KindNull:
		return nil, pyvalue.ExcTypeError
	default:
		return nil, pyvalue.ExcUnsupported
	}
}

func rangeCall(e pyast.Expr) (*pyast.Call, bool) {
	call, ok := e.(*pyast.Call)
	if !ok {
		return nil, false
	}
	nm, ok := call.Fn.(*pyast.Name)
	if !ok || nm.Ident != "range" || len(call.Args) == 0 || len(call.Args) > 3 {
		return nil, false
	}
	return call, true
}

// rangeBounds compiles range arguments into a (start, stop, step) thunk.
func (c *compiler) rangeBounds(call *pyast.Call) (func(fr *Frame) (int64, int64, int64, ECode), error) {
	args := make([]i64Fn, len(call.Args))
	for i, a := range call.Args {
		e, err := c.i64(a)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	return func(fr *Frame) (start, stop, step int64, ec ECode) {
		var vals [3]int64
		for i, a := range args {
			n, e := a(fr)
			if e != 0 {
				return 0, 0, 0, operandErr(e)
			}
			vals[i] = n
		}
		step = 1
		switch len(args) {
		case 1:
			stop = vals[0]
		case 2:
			start, stop = vals[0], vals[1]
		case 3:
			start, stop, step = vals[0], vals[1], vals[2]
			if step == 0 {
				return 0, 0, 0, pyvalue.ExcValueError
			}
		}
		return start, stop, step, 0
	}, nil
}

func (c *compiler) assign(target pyast.Expr, value exprFn) (stmtFn, error) {
	set, err := c.assignSetter(target)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) (ctl, rows.Slot, ECode) {
		v, ec := value(fr)
		if ec != 0 {
			return ctlNext, rows.Slot{}, ec
		}
		return ctlNext, rows.Slot{}, set(fr, v)
	}, nil
}

func (c *compiler) assignSetter(target pyast.Expr) (func(fr *Frame, v rows.Slot) ECode, error) {
	switch t := target.(type) {
	case *pyast.Name:
		s := c.slot(t.Ident)
		return func(fr *Frame, v rows.Slot) ECode {
			fr.Slots[s] = v
			return 0
		}, nil
	case *pyast.TupleLit:
		setters := make([]func(fr *Frame, v rows.Slot) ECode, len(t.Elts))
		for i, el := range t.Elts {
			set, err := c.assignSetter(el)
			if err != nil {
				return nil, err
			}
			setters[i] = set
		}
		return func(fr *Frame, v rows.Slot) ECode {
			if v.Tag != types.KindTuple && v.Tag != types.KindList {
				return pyvalue.ExcTypeError
			}
			if len(v.Seq) != len(setters) {
				return pyvalue.ExcValueError
			}
			for i, set := range setters {
				if ec := set(fr, v.Seq[i]); ec != 0 {
					return ec
				}
			}
			return 0
		}, nil
	case *pyast.Subscript:
		// In-place container mutation stays off the fast path (UDF state
		// is row-local; the general path handles it).
		return func(fr *Frame, v rows.Slot) ECode { return pyvalue.ExcUnsupported }, nil
	default:
		return nil, fmt.Errorf("codegen: unsupported assignment target %T", target)
	}
}
