package codegen

import (
	"math"
	"strconv"
	"strings"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// call compiles function/method/module calls. Regex patterns that are
// string literals compile at UDF-compile time (the paper's prototype
// does the same with PCRE2); everything else specializes on the static
// receiver/argument types established by inference.
func (c *compiler) call(x *pyast.Call) (exprFn, error) {
	if attr, ok := x.Fn.(*pyast.Attr); ok {
		if mod, ok := attr.X.(*pyast.Name); ok && isModuleIdent(mod.Ident) {
			if _, shadowed := c.slots[mod.Ident]; !shadowed {
				return c.moduleCall(x, mod.Ident+"."+attr.Name)
			}
		}
		return c.methodCall(x, attr)
	}
	name, ok := x.Fn.(*pyast.Name)
	if !ok {
		return exitFn(pyvalue.ExcUnsupported), nil
	}
	switch name.Ident {
	case "re_search":
		return c.moduleCall(x, "re.search")
	case "re_match":
		return c.moduleCall(x, "re.match")
	case "re_sub":
		return c.moduleCall(x, "re.sub")
	case "random_choice":
		return c.moduleCall(x, "random.choice")
	case "string_capwords":
		return c.moduleCall(x, "string.capwords")
	}
	return c.builtinCall(x, name.Ident)
}

func isModuleIdent(n string) bool { return n == "re" || n == "random" || n == "string" }

func exitFn(ec ECode) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, ec }
}

// constPattern extracts a compile-time regex from a literal argument.
func constPattern(e pyast.Expr) (string, bool) {
	lit, ok := e.(*pyast.StrLit)
	if !ok {
		return "", false
	}
	return lit.S, true
}

func (c *compiler) moduleCall(x *pyast.Call, qual string) (exprFn, error) {
	switch qual {
	case "re.search", "re.match":
		pat, ok := constPattern(x.Args[0])
		if !ok {
			return exitFn(pyvalue.ExcUnsupported), nil
		}
		re, err := pyre.Compile(pat)
		if err != nil {
			return exitFn(pyvalue.ExcValueError), nil
		}
		sub, err := c.expr(x.Args[1])
		if err != nil {
			return nil, err
		}
		subject := asStr(sub, x.Args[1].Type(), pyvalue.ExcTypeError)
		prefixOnly := qual == "re.match"
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := subject(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			var saves []int
			if prefixOnly {
				saves = re.MatchPrefix(s)
			} else {
				saves = re.Search(s)
			}
			if saves == nil {
				return rows.Null(), 0
			}
			n := len(saves) / 2
			m := &pyvalue.Match{Groups: make([]string, n), Present: make([]bool, n)}
			for i := range n {
				if saves[2*i] >= 0 {
					m.Groups[i] = s[saves[2*i]:saves[2*i+1]]
					m.Present[i] = true
				}
			}
			return rows.Slot{Tag: types.KindMatch, Obj: m}, 0
		}, nil
	case "re.sub":
		pat, ok := constPattern(x.Args[0])
		if !ok {
			return exitFn(pyvalue.ExcUnsupported), nil
		}
		re, err := pyre.Compile(pat)
		if err != nil {
			return exitFn(pyvalue.ExcValueError), nil
		}
		repl, err := c.expr(x.Args[1])
		if err != nil {
			return nil, err
		}
		replStr := asStr(repl, x.Args[1].Type(), pyvalue.ExcTypeError)
		sub, err := c.expr(x.Args[2])
		if err != nil {
			return nil, err
		}
		subject := asStr(sub, x.Args[2].Type(), pyvalue.ExcTypeError)
		return func(fr *Frame) (rows.Slot, ECode) {
			r, ec := replStr(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			s, ec := subject(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Str(re.Sub(r, s)), 0
		}, nil
	case "random.choice":
		arg, err := c.expr(x.Args[0])
		if err != nil {
			return nil, err
		}
		at := x.Args[0].Type().Unwrap()
		if at.Kind() == types.KindStr {
			seq := asStr(arg, x.Args[0].Type(), pyvalue.ExcTypeError)
			return func(fr *Frame) (rows.Slot, ECode) {
				s, ec := seq(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				if s == "" {
					return rows.Slot{}, pyvalue.ExcIndexError
				}
				return rows.Str(fr.Rand.Choice(s)), 0
			}, nil
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := arg(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if (v.Tag != types.KindList && v.Tag != types.KindTuple) || len(v.Seq) == 0 {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			return v.Seq[fr.Rand.Intn(len(v.Seq))], 0
		}, nil
	case "string.capwords":
		arg, err := c.expr(x.Args[0])
		if err != nil {
			return nil, err
		}
		s := asStr(arg, x.Args[0].Type(), pyvalue.ExcTypeError)
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := s(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Str(pyvalue.Capwords(v)), 0
		}, nil
	default:
		return exitFn(pyvalue.ExcUnsupported), nil
	}
}

func (c *compiler) builtinCall(x *pyast.Call, name string) (exprFn, error) {
	args, err := c.exprs(x.Args)
	if err != nil {
		return nil, err
	}
	argT := func(i int) types.Type { return x.Args[i].Type() }
	switch name {
	case "len":
		a := args[0]
		switch argT(0).Unwrap().Kind() {
		case types.KindStr:
			s := asStr(a, argT(0), pyvalue.ExcTypeError)
			return func(fr *Frame) (rows.Slot, ECode) {
				v, ec := s(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				return rows.I64(int64(len(v))), 0
			}, nil
		default:
			return func(fr *Frame) (rows.Slot, ECode) {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				switch v.Tag {
				case types.KindStr:
					return rows.I64(int64(len(v.S))), 0
				case types.KindList, types.KindTuple, types.KindDict:
					return rows.I64(int64(len(v.Seq))), 0
				case types.KindNull:
					return rows.Slot{}, pyvalue.ExcTypeError
				default:
					return rows.Slot{}, pyvalue.ExcUnsupported
				}
			}, nil
		}
	case "int":
		if len(args) == 0 {
			return func(fr *Frame) (rows.Slot, ECode) { return rows.I64(0), 0 }, nil
		}
		a := args[0]
		switch argT(0).Unwrap().Kind() {
		case types.KindStr:
			s := asStr(a, argT(0), pyvalue.ExcTypeError)
			return func(fr *Frame) (rows.Slot, ECode) {
				v, ec := s(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				n, perr := parseIntPython(v)
				if perr != 0 {
					return rows.Slot{}, perr
				}
				return rows.I64(n), 0
			}, nil
		default:
			return func(fr *Frame) (rows.Slot, ECode) {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				switch v.Tag {
				case types.KindI64:
					return v, 0
				case types.KindF64:
					n, ec := floatToInt(v.F)
					if ec != 0 {
						return rows.Slot{}, ec
					}
					return rows.I64(n), 0
				case types.KindBool:
					if v.B {
						return rows.I64(1), 0
					}
					return rows.I64(0), 0
				case types.KindStr:
					n, perr := parseIntPython(v.S)
					if perr != 0 {
						return rows.Slot{}, perr
					}
					return rows.I64(n), 0
				default:
					return rows.Slot{}, pyvalue.ExcTypeError
				}
			}, nil
		}
	case "float":
		if len(args) == 0 {
			return func(fr *Frame) (rows.Slot, ECode) { return rows.F64(0), 0 }, nil
		}
		a := args[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			switch v.Tag {
			case types.KindF64:
				return v, 0
			case types.KindI64:
				return rows.F64(float64(v.I)), 0
			case types.KindBool:
				if v.B {
					return rows.F64(1), 0
				}
				return rows.F64(0), 0
			case types.KindStr:
				f, perr := parseFloatPython(v.S)
				if perr != 0 {
					return rows.Slot{}, perr
				}
				return rows.F64(f), 0
			default:
				return rows.Slot{}, pyvalue.ExcTypeError
			}
		}, nil
	case "str":
		if len(args) == 0 {
			return func(fr *Frame) (rows.Slot, ECode) { return rows.Str(""), 0 }, nil
		}
		a := args[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if v.Tag == types.KindStr {
				return v, 0
			}
			return rows.Str(pyvalue.ToStr(v.Value())), 0
		}, nil
	case "bool":
		if len(args) == 0 {
			return func(fr *Frame) (rows.Slot, ECode) { return rows.Bool(false), 0 }, nil
		}
		a := args[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			return rows.Bool(v.Truth()), 0
		}, nil
	case "abs":
		a := args[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			switch v.Tag {
			case types.KindI64:
				if v.I < 0 {
					return rows.I64(-v.I), 0
				}
				return v, 0
			case types.KindF64:
				if v.F < 0 {
					return rows.F64(-v.F), 0
				}
				return v, 0
			case types.KindBool:
				if v.B {
					return rows.I64(1), 0
				}
				return rows.I64(0), 0
			default:
				return rows.Slot{}, pyvalue.ExcTypeError
			}
		}, nil
	case "min", "max":
		wantMax := name == "max"
		return func(fr *Frame) (rows.Slot, ECode) {
			var vals []pyvalue.Value
			for _, a := range args {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				vals = append(vals, v.Value())
			}
			res, err := pyvalue.MinMax(vals, wantMax)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.FromValue(res), 0
		}, nil
	case "round":
		a := args[0]
		var nd exprFn
		if len(args) >= 2 {
			nd = args[1]
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			v, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			f, ok := slotF64(v)
			if !ok {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			var ndp *int64
			if nd != nil {
				nv, ec := nd(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				if nv.Tag == types.KindI64 {
					ndp = &nv.I
				}
			}
			res, err := pyvalue.Round(pyvalue.Float(f), ndp)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.FromValue(res), 0
		}, nil
	case "range":
		bounds, err := c.rangeBounds(x)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			start, stop, step, ec := bounds(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			var out []rows.Slot
			for i := start; (step > 0 && i < stop) || (step < 0 && i > stop); i += step {
				out = append(out, rows.I64(i))
			}
			return rows.List(out), 0
		}, nil
	case "ord":
		a := asStr(args[0], argT(0), pyvalue.ExcTypeError)
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if len(s) != 1 {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			return rows.I64(int64(s[0])), 0
		}, nil
	case "chr":
		a := asI64(args[0])
		return func(fr *Frame) (rows.Slot, ECode) {
			n, ec := a(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if n < 0 || n > 127 {
				return rows.Slot{}, pyvalue.ExcValueError
			}
			return rows.Str(string(rune(n))), 0
		}, nil
	case "sorted", "sum":
		// Boxed via the shared runtime; these are cold in row UDFs.
		return func(fr *Frame) (rows.Slot, ECode) { return rows.Slot{}, pyvalue.ExcUnsupported }, nil
	default:
		return exitFn(pyvalue.ExcNameError), nil
	}
}

// floatToInt is int(f): truncation toward zero; NaN raises ValueError
// and an infinity OverflowError, as in Python (and pyvalue.ToInt).
func floatToInt(f float64) (int64, ECode) {
	switch {
	case f != f:
		return 0, pyvalue.ExcValueError
	case math.IsInf(f, 0):
		return 0, pyvalue.ExcOverflowError
	}
	return int64(f), 0
}

// parseIntPython parses like Python's int(str): surrounding whitespace
// allowed, sign, decimal digits, underscores ignored. Hand-rolled rather
// than strconv.ParseInt so neither the (common, data-driven) failure case
// nor a grouped literal costs an allocation — bad cells are normal
// traffic on the fast path.
func parseIntPython(s string) (int64, ECode) {
	t := strings.TrimSpace(s)
	neg, started, digits := false, false, false
	var n uint64
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c == '_' {
			continue
		}
		if !started {
			started = true
			if c == '+' || c == '-' {
				neg = c == '-'
				continue
			}
		}
		if c < '0' || c > '9' {
			return 0, pyvalue.ExcValueError
		}
		// Overflow reports ValueError like the strconv-based parse did
		// (the engine has no bigint normal path).
		if n > (1<<63)/10 {
			return 0, pyvalue.ExcValueError
		}
		n = n*10 + uint64(c-'0')
		if n > 1<<63 {
			return 0, pyvalue.ExcValueError
		}
		digits = true
	}
	if !digits {
		return 0, pyvalue.ExcValueError
	}
	if neg {
		return -int64(n), 0
	}
	if n == 1<<63 {
		return 0, pyvalue.ExcValueError
	}
	return int64(n), 0
}

func parseFloatPython(s string) (float64, ECode) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, pyvalue.ExcValueError
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, pyvalue.ExcValueError
	}
	return f, 0
}

// methodCall compiles obj.method(args) with a receiver type known from
// inference.
func (c *compiler) methodCall(x *pyast.Call, attr *pyast.Attr) (exprFn, error) {
	recvT := attr.X.Type()
	ru := recvT.Unwrap()
	switch ru.Kind() {
	case types.KindStr:
		return c.strMethodCall(x, attr)
	case types.KindMatch:
		return c.matchMethodCall(x, attr)
	case types.KindList, types.KindDict:
		// List/dict mutation methods are cold; run boxed.
		recv, err := c.expr(attr.X)
		if err != nil {
			return nil, err
		}
		args, err := c.exprs(x.Args)
		if err != nil {
			return nil, err
		}
		name := attr.Name
		return func(fr *Frame) (rows.Slot, ECode) {
			rv, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if rv.Tag == types.KindList {
				// Boxed list methods would not write back into the slot;
				// keep mutations off the fast path.
				return rows.Slot{}, pyvalue.ExcUnsupported
			}
			vals := make([]pyvalue.Value, len(args))
			for i, a := range args {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				vals[i] = v.Value()
			}
			res, err := pyvalue.CallMethod(rv.Value(), name, vals)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.FromValue(res), 0
		}, nil
	default:
		return exitFn(pyvalue.ExcAttributeError), nil
	}
}

func (c *compiler) matchMethodCall(x *pyast.Call, attr *pyast.Attr) (exprFn, error) {
	recv, err := c.expr(attr.X)
	if err != nil {
		return nil, err
	}
	var idx exprFn
	if len(x.Args) >= 1 {
		if idx, err = c.intExpr(x.Args[0]); err != nil {
			return nil, err
		}
	}
	switch attr.Name {
	case "group":
		return func(fr *Frame) (rows.Slot, ECode) {
			rv, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			m, ok := rv.Obj.(*pyvalue.Match)
			if !ok {
				return rows.Slot{}, pyvalue.ExcAttributeError
			}
			i := int64(0)
			if idx != nil {
				iv, ec := idx(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				i = iv.I
			}
			if i < 0 || int(i) >= len(m.Groups) {
				return rows.Slot{}, pyvalue.ExcIndexError
			}
			if !m.Present[i] {
				return rows.Slot{}, pyvalue.ExcUnsupported
			}
			return rows.Str(m.Groups[i]), 0
		}, nil
	default:
		return exitFn(pyvalue.ExcUnsupported), nil
	}
}
