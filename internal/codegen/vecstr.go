package codegen

// vecstr.go — string values in vector programs.
//
// A string register is a dense []string indexed by absolute batch row,
// like the numeric registers. Nothing in it owns bytes: a column load is
// not even a register (the operand reads the colvec.Vec's Off/SLen/Bytes
// payload in place), a slice, strip or index re-spans its input, and a
// producer (case folding, replace, concatenation, formatting) appends its
// bytes to the state's batch arena and aliases them. The arena is reset
// by the next begin, and a column's bytes are rewritten by the batch after
// this one — so a string read out of a register or a column operand is
// valid only until the state's next run, and a program's result is copied
// into its derived vector (Vec.SetStr) before Eval returns.
//
// Every loop calls the scalar helper of strhelp.go that the row closure
// calls. A row on which the closure would raise (IndexError from s[i],
// ValueError from int('') or index(), a null operand) is marked for
// replay; the kernels themselves are total, so the garbage a marked or
// unselected row may hold is computed on without harm.

import (
	"unsafe"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// strArg reads a string operand row by row: a register, a column's
// payload in place, or a constant.
type strArg struct {
	vec       []string
	off, slen []uint32
	bytes     []byte
	c         string
}

// at returns row r's string. A column cell aliases the column's bytes; a
// stale cell (the payload of a null, of a row outside the selection) that
// points past them reads as "".
func (a *strArg) at(r int32) string {
	if a.vec != nil {
		return a.vec[r]
	}
	if a.off == nil {
		return a.c
	}
	o, n := int(a.off[r]), int(a.slen[r])
	if n == 0 || o+n > len(a.bytes) {
		return ""
	}
	return unsafe.String(&a.bytes[o], n)
}

func (st *VecState) strs(o *vecOperand) strArg {
	switch o.src {
	case srcCol:
		v := st.col(o.idx)
		return strArg{off: v.Off, slen: v.SLen, bytes: v.Bytes}
	case srcReg:
		return strArg{vec: st.str[o.idx]}
	}
	return strArg{c: o.cs}
}

// i64Arg reads an integer operand that may be a constant.
type i64Arg struct {
	vec []int64
	c   int64
}

func (a *i64Arg) at(r int32) int64 {
	if a.vec != nil {
		return a.vec[r]
	}
	return a.c
}

func (st *VecState) i64Arg(o *vecOperand) i64Arg {
	return i64Arg{vec: st.i64s(o), c: o.ci}
}

// arenaStr finishes a producer that appended to st.arena from start on
// (see strhelp.go): the appended bytes, aliased, or else alias.
func (st *VecState) arenaStr(start int, alias string) string {
	if len(st.arena) == start {
		return alias
	}
	return unsafe.String(&st.arena[start], len(st.arena)-start)
}

// ---- kernels -------------------------------------------------------------

// vecStrFind is find/rfind and, with raises, index/rindex (a miss marks
// the row).
//
//tuplex:kernel
func vecStrFind(out []int64, s, sub strArg, last, raises bool, sel []int32, st *VecState) {
	for _, r := range sel {
		i := strFind(s.at(r), sub.at(r), last)
		if i < 0 && raises {
			st.markBail(r)
		}
		out[r] = i
	}
}

//tuplex:kernel
func vecStrCaseFold(out []string, s strArg, upper bool, sel []int32, st *VecState) {
	for _, r := range sel {
		start := len(st.arena)
		var alias string
		st.arena, alias = appendCaseFold(st.arena, s.at(r), upper)
		out[r] = st.arenaStr(start, alias)
	}
}

// vecStrReplace marks the rows whose needle is empty: the row closure
// hands those to strings.ReplaceAll.
//
//tuplex:kernel
func vecStrReplace(out []string, s, old, new strArg, sel []int32, st *VecState) {
	for _, r := range sel {
		o := old.at(r)
		if o == "" {
			st.markBail(r)
			continue
		}
		start := len(st.arena)
		var alias string
		st.arena, alias = appendReplace(st.arena, s.at(r), o, new.at(r))
		out[r] = st.arenaStr(start, alias)
	}
}

//tuplex:kernel
func vecStrConcat(out []string, a, b strArg, sel []int32, st *VecState) {
	for _, r := range sel {
		start := len(st.arena)
		var alias string
		st.arena, alias = appendConcat(st.arena, a.at(r), b.at(r))
		out[r] = st.arenaStr(start, alias)
	}
}

//tuplex:kernel
func vecStrStrip(out []string, s, cut strArg, mode stripMode, sel []int32) {
	for _, r := range sel {
		out[r] = strStrip(s.at(r), cut.at(r), mode)
	}
}

// vecStrIndex is s[i]; an index out of range marks the row.
//
//tuplex:kernel
func vecStrIndex(out []string, s strArg, idx i64Arg, sel []int32, st *VecState) {
	for _, r := range sel {
		ch, ok := strIndex(s.at(r), idx.at(r))
		if !ok {
			st.markBail(r)
		}
		out[r] = ch
	}
}

// vecStrSlice is s[lo:hi]; hasLo/hasHi say which bounds the source wrote.
//
//tuplex:kernel
func vecStrSlice(out []string, s strArg, lo, hi i64Arg, hasLo, hasHi bool, sel []int32) {
	for _, r := range sel {
		l, h := lo.at(r), hi.at(r)
		var lp, hp *int64
		if hasLo {
			lp = &l
		}
		if hasHi {
			hp = &h
		}
		out[r] = strSlice(s.at(r), lp, hp)
	}
}

//tuplex:kernel
func vecStrLen(out []int64, s strArg, sel []int32) {
	for _, r := range sel {
		out[r] = int64(len(s.at(r)))
	}
}

// vecStrToInt is int(str); a cell int() raises ValueError on marks the row.
//
//tuplex:kernel
func vecStrToInt(out []int64, s strArg, sel []int32, st *VecState) {
	for _, r := range sel {
		n, ec := parseIntPython(s.at(r))
		if ec != 0 {
			st.markBail(r)
		}
		out[r] = n
	}
}

// vecF2I is int(float) (floatToInt); a NaN or infinite cell marks the row.
//
//tuplex:kernel
func vecF2I(out []int64, a []float64, sel []int32, st *VecState) {
	for _, r := range sel {
		n, ec := floatToInt(a[r])
		if ec != 0 {
			st.markBail(r)
		}
		out[r] = n
	}
}

// vecIntFormat renders a compiled integer format over its arguments.
//
//tuplex:kernel
func vecIntFormat(out []string, f *pyvalue.IntFormat, args []i64Arg, sel []int32, st *VecState) {
	var vals [maxIntFormatArgs]int64
	for _, r := range sel {
		for i := range args {
			vals[i] = args[i].at(r)
		}
		start := len(st.arena)
		st.arena = f.Append(st.arena, vals[:len(args)])
		out[r] = st.arenaStr(start, "")
	}
}

// vecStrCopy materializes an operand into a register at sel.
//
//tuplex:kernel
func vecStrCopy(out []string, a strArg, sel []int32) {
	for _, r := range sel {
		out[r] = a.at(r)
	}
}

// vecStrCmp writes the rows of sel where a op b (op may be the substring
// tests) to out and returns their count.
//
//tuplex:kernel
func vecStrCmp(op strCmpOp, a, b strArg, sel, out []int32) int {
	k := 0
	for _, r := range sel {
		out[k] = r
		k += b2i(strCompare(op, a.at(r), b.at(r)))
	}
	return k
}

// vecStrTruthy writes the rows of sel whose string is non-empty to out.
//
//tuplex:kernel
func vecStrTruthy(a strArg, sel, out []int32) int {
	k := 0
	for _, r := range sel {
		out[k] = r
		k += b2i(a.at(r) != "")
	}
	return k
}

// storeStrs copies the result strings at rows into dst, skipping the rows
// marked for replay (their registers may hold anything).
//
//tuplex:kernel
func (st *VecState) storeStrs(dst *colvec.Vec, a strArg, rows []int32) {
	for _, r := range rows {
		if !st.mark[r] {
			dst.SetStr(int(r), a.at(r))
		}
	}
}

// ---- the walker's string nodes -------------------------------------------

func isStrType(t types.Type) bool { return t.Unwrap().Kind() == types.KindStr }

// strValue evaluates x as a string operand.
func (w *vecWalk) strValue(x pyast.Expr, sel []int32) (vecOperand, bool) {
	a, ok := w.value(x, sel)
	if ok && a.kind != types.KindStr {
		return w.no(x)
	}
	return a, ok
}

// intValue evaluates x as an i64 operand (an index, a slice bound, a
// format argument).
func (w *vecWalk) intValue(x pyast.Expr, sel []int32) (vecOperand, bool) {
	a, ok := w.value(x, sel)
	if ok && a.kind != types.KindI64 {
		return w.no(x)
	}
	return a, ok
}

// call evaluates the calls inside the grammar: the string methods and the
// builtins len and int.
func (w *vecWalk) call(x *pyast.Call, sel []int32) (vecOperand, bool) {
	if len(x.KwArgs) != 0 {
		return w.no(x)
	}
	switch fn := x.Fn.(type) {
	case *pyast.Attr:
		if mod, ok := fn.X.(*pyast.Name); ok && isModuleIdent(mod.Ident) && !w.env.binds(mod.Ident) {
			return w.no(x) // re.search, random.choice, string.capwords
		}
		if !isStrType(fn.X.Type()) {
			return w.no(x)
		}
		return w.strMethod(x, fn, sel)
	case *pyast.Name:
		if len(x.Args) != 1 || w.env.binds(fn.Ident) {
			return w.no(x)
		}
		if _, shadowed := w.env.globals[fn.Ident]; shadowed {
			return w.no(x)
		}
		switch fn.Ident {
		case "len":
			s, ok := w.strValue(x.Args[0], sel)
			if !ok {
				return s, false
			}
			if s.src == srcConst {
				return vecOperand{kind: types.KindI64, ci: int64(len(s.cs))}, true
			}
			out := w.reg(types.KindI64)
			if w.run() {
				vecStrLen(w.st.i[out.idx], w.st.strs(&s), sel)
			}
			return out, true
		case "int":
			return w.toInt(x, sel)
		}
	}
	return w.no(x)
}

// toInt is int(x) over a str (parse), a float (truncate) or an int.
func (w *vecWalk) toInt(x *pyast.Call, sel []int32) (vecOperand, bool) {
	a, ok := w.value(x.Args[0], sel)
	if !ok {
		return a, false
	}
	st := w.st
	switch a.kind {
	case types.KindI64:
		return a, true
	case types.KindF64:
		a = w.dense(a, sel)
		out := w.reg(types.KindI64)
		if w.run() {
			vecF2I(st.i[out.idx], st.f64s(&a), sel, st)
		}
		return out, true
	case types.KindStr:
		out := w.reg(types.KindI64)
		if w.run() {
			vecStrToInt(st.i[out.idx], st.strs(&a), sel, st)
		}
		return out, true
	}
	return w.no(x)
}

func (w *vecWalk) strMethod(x *pyast.Call, attr *pyast.Attr, sel []int32) (vecOperand, bool) {
	nargs := -1
	switch attr.Name {
	case "lower", "upper":
		nargs = 0
	case "find", "rfind", "index", "rindex":
		nargs = 1
	case "replace":
		nargs = 2
	case "strip", "lstrip", "rstrip":
		nargs = min(len(x.Args), 1)
	case "format":
		return w.intFormat(x, attr.X, x.Args, false, sel)
	}
	if len(x.Args) != nargs {
		return w.no(x)
	}
	recv, ok := w.strValue(attr.X, sel)
	if !ok {
		return recv, false
	}
	var args [2]vecOperand
	for i, a := range x.Args {
		if args[i], ok = w.strValue(a, sel); !ok {
			return args[i], false
		}
	}
	st := w.st
	switch attr.Name {
	case "find", "rfind", "index", "rindex":
		last := attr.Name == "rfind" || attr.Name == "rindex"
		raises := attr.Name == "index" || attr.Name == "rindex"
		out := w.reg(types.KindI64)
		if w.run() {
			vecStrFind(st.i[out.idx], st.strs(&recv), st.strs(&args[0]), last, raises, sel, st)
		}
		return out, true
	case "lower", "upper":
		out := w.reg(types.KindStr)
		if w.run() {
			vecStrCaseFold(st.str[out.idx], st.strs(&recv), attr.Name == "upper", sel, st)
		}
		return out, true
	case "replace":
		out := w.reg(types.KindStr)
		if w.run() {
			vecStrReplace(st.str[out.idx], st.strs(&recv), st.strs(&args[0]), st.strs(&args[1]), sel, st)
		}
		return out, true
	}
	if nargs == 0 {
		args[0] = vecOperand{kind: types.KindStr, cs: pyWhitespace}
	}
	out := w.reg(types.KindStr)
	if w.run() {
		vecStrStrip(st.str[out.idx], st.strs(&recv), st.strs(&args[0]), stripModeOf(attr.Name), sel)
	}
	return out, true
}

// maxIntFormatArgs bounds the arguments of a vectorized integer format: the
// kernel stages them in a fixed operand list.
const maxIntFormatArgs = 4

// percentArgs lists the arguments of `fmt % right`: the elements of a
// tuple display, or right itself.
func percentArgs(right pyast.Expr) []pyast.Expr {
	if t, ok := right.(*pyast.TupleLit); ok {
		return t.Elts
	}
	return []pyast.Expr{right}
}

// intFormatOf compiles `fmt % args` / `fmt.format(args)` when fmt is a
// literal the integer formatter covers and every argument is statically
// an int; nil otherwise.
func intFormatOf(format pyast.Expr, args []pyast.Expr, percent bool) *pyvalue.IntFormat {
	lit, ok := format.(*pyast.StrLit)
	if !ok || len(args) == 0 || len(args) > maxIntFormatArgs {
		return nil
	}
	for _, a := range args {
		if t := a.Type(); t.IsOption() || t.Kind() != types.KindI64 {
			return nil
		}
	}
	compile := pyvalue.CompileStrFormatInt
	if percent {
		compile = pyvalue.CompilePercentInt
	}
	f, ok := compile(lit.S)
	if !ok || !f.Accepts(len(args)) {
		return nil
	}
	return f
}

// intFormat evaluates `fmt % args` / `fmt.format(args)` for a literal fmt
// over int arguments (intFormatOf). The check compiles the format into
// the program; a run picks it up by walk position.
func (w *vecWalk) intFormat(x pyast.Node, format pyast.Expr, fargs []pyast.Expr, percent bool, sel []int32) (vecOperand, bool) {
	if !w.usable(format) {
		return w.no(format)
	}
	var f *pyvalue.IntFormat
	if w.run() {
		f = w.checked.formats[w.nFmt]
	} else if f = intFormatOf(format, fargs, percent); f == nil {
		return w.no(x)
	} else {
		w.prog.formats = append(w.prog.formats, f)
	}
	w.nFmt++
	var args [maxIntFormatArgs]vecOperand
	for i, a := range fargs {
		var ok bool
		if args[i], ok = w.intValue(a, sel); !ok {
			return args[i], false
		}
	}
	out := w.reg(types.KindStr)
	if w.run() {
		st := w.st
		var ia [maxIntFormatArgs]i64Arg
		for i := range fargs {
			ia[i] = st.i64Arg(&args[i])
		}
		vecIntFormat(st.str[out.idx], f, ia[:len(fargs)], sel, st)
	}
	return out, true
}

// strBinary is + over two strings and % over a literal format.
func (w *vecWalk) strBinary(x pyast.Node, op string, left, right pyast.Expr, sel []int32) (vecOperand, bool) {
	switch op {
	case "+":
		if !isStrType(right.Type()) {
			return w.no(x)
		}
		a, ok := w.strValue(left, sel)
		if !ok {
			return a, false
		}
		b, ok := w.strValue(right, sel)
		if !ok {
			return b, false
		}
		out := w.reg(types.KindStr)
		if w.run() {
			st := w.st
			vecStrConcat(st.str[out.idx], st.strs(&a), st.strs(&b), sel, st)
		}
		return out, true
	case "%":
		if !w.usable(right) {
			return w.no(right)
		}
		return w.intFormat(x, left, percentArgs(right), true, sel)
	}
	return w.no(x)
}

// strSubscript is s[i] on a string (row-column subscripts are loads).
func (w *vecWalk) strSubscript(x *pyast.Subscript, sel []int32) (vecOperand, bool) {
	if x.RowIdx >= 0 || !isStrType(x.X.Type()) {
		return w.no(x)
	}
	s, ok := w.strValue(x.X, sel)
	if !ok {
		return s, false
	}
	i, ok := w.intValue(x.Index, sel)
	if !ok {
		return i, false
	}
	out := w.reg(types.KindStr)
	if w.run() {
		st := w.st
		vecStrIndex(st.str[out.idx], st.strs(&s), st.i64Arg(&i), sel, st)
	}
	return out, true
}

// strSliceExpr is the unit-step s[lo:hi].
func (w *vecWalk) strSliceExpr(x *pyast.Slice, sel []int32) (vecOperand, bool) {
	if x.Step != nil || !isStrType(x.X.Type()) {
		return w.no(x)
	}
	s, ok := w.strValue(x.X, sel)
	if !ok {
		return s, false
	}
	var lo, hi vecOperand
	if x.Lo != nil {
		if lo, ok = w.intValue(x.Lo, sel); !ok {
			return lo, false
		}
	}
	if x.Hi != nil {
		if hi, ok = w.intValue(x.Hi, sel); !ok {
			return hi, false
		}
	}
	out := w.reg(types.KindStr)
	if w.run() {
		st := w.st
		vecStrSlice(st.str[out.idx], st.strs(&s), st.i64Arg(&lo), st.i64Arg(&hi), x.Lo != nil, x.Hi != nil, sel)
	}
	return out, true
}
