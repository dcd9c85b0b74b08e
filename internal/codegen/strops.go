package codegen

import (
	"strings"

	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// strMethodCall compiles the string methods that dominate data-wrangling
// UDFs into direct implementations over the slot's string, with no
// boxing. None receivers (optional columns) raise AttributeError as
// return codes, matching Python.
func (c *compiler) strMethodCall(x *pyast.Call, attr *pyast.Attr) (exprFn, error) {
	recvE, err := c.expr(attr.X)
	if err != nil {
		return nil, err
	}
	recv := asStr(recvE, attr.X.Type(), pyvalue.ExcAttributeError)
	args, err := c.exprs(x.Args)
	if err != nil {
		return nil, err
	}
	strArg := func(i int) strFn {
		return asStr(args[i], x.Args[i].Type(), pyvalue.ExcTypeError)
	}
	intArg := func(i int) i64Fn {
		return asI64(args[i])
	}

	if !c.opts.Specialize {
		// Generic path: box receiver and args, dispatch by name.
		name := attr.Name
		return func(fr *Frame) (rows.Slot, ECode) {
			rv, ec := recvE(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			recv := rv.Value()
			if err := pyvalue.LookupMethod(recv, name); err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			vals := make([]pyvalue.Value, len(args))
			for i, a := range args {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				vals[i] = v.Value()
			}
			res, err := pyvalue.CallMethod(recv, name, vals)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.FromValue(res), 0
		}, nil
	}

	switch attr.Name {
	case "find", "rfind", "index", "rindex":
		sub := strArg(0)
		last := attr.Name == "rfind" || attr.Name == "rindex"
		raises := attr.Name == "index" || attr.Name == "rindex"
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			needle, ec := sub(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			i := strFind(s, needle, last)
			if i < 0 && raises {
				return rows.Slot{}, pyvalue.ExcValueError
			}
			return rows.I64(i), 0
		}, nil
	case "lower":
		return strCaseFold(recv, false), nil
	case "upper":
		return strCaseFold(recv, true), nil
	case "capitalize":
		return strUnary(recv, pyvalue.Capitalize), nil
	case "title":
		return strUnary(recv, pyvalue.TitleCase), nil
	case "strip", "lstrip", "rstrip":
		var cut exprFn
		if len(args) >= 1 {
			cut = args[0]
		}
		return strStripCall(recv, cut, stripModeOf(attr.Name)), nil
	case "replace":
		return strReplace(recv, strArg(0), strArg(1)), nil
	case "split":
		if len(args) == 0 {
			return func(fr *Frame) (rows.Slot, ECode) {
				s, ec := recv(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				fields := strings.Fields(s)
				out := make([]rows.Slot, len(fields))
				for i, f := range fields {
					out[i] = rows.Str(f)
				}
				return rows.List(out), 0
			}, nil
		}
		sep := strArg(0)
		var maxSplit func(fr *Frame) (int64, ECode)
		if len(args) >= 2 {
			maxSplit = intArg(1)
		}
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			sp, ec := sep(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if sp == "" {
				return rows.Slot{}, pyvalue.ExcValueError
			}
			n := -1
			if maxSplit != nil {
				m, ec := maxSplit(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				if m >= 0 {
					n = int(m) + 1
				}
			}
			parts := strings.SplitN(s, sp, n)
			out := make([]rows.Slot, len(parts))
			for i, p := range parts {
				out[i] = rows.Str(p)
			}
			return rows.List(out), 0
		}, nil
	case "join":
		arg := args[0]
		return func(fr *Frame) (rows.Slot, ECode) {
			sep, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			v, ec := arg(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if v.Tag != types.KindList && v.Tag != types.KindTuple {
				return rows.Slot{}, pyvalue.ExcTypeError
			}
			parts := make([]string, len(v.Seq))
			for i, el := range v.Seq {
				if el.Tag != types.KindStr {
					return rows.Slot{}, pyvalue.ExcTypeError
				}
				parts[i] = el.S
			}
			return rows.Str(strings.Join(parts, sep)), 0
		}, nil
	case "startswith", "endswith":
		pre := strArg(0)
		isPrefix := attr.Name == "startswith"
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			p, ec := pre(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if isPrefix {
				return rows.Bool(strings.HasPrefix(s, p)), 0
			}
			return rows.Bool(strings.HasSuffix(s, p)), 0
		}, nil
	case "count":
		sub := strArg(0)
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			needle, ec := sub(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			if needle == "" {
				return rows.I64(int64(len(s) + 1)), 0
			}
			return rows.I64(int64(strings.Count(s, needle))), 0
		}, nil
	case "isdigit", "isalpha", "isalnum", "isspace", "islower", "isupper":
		name := attr.Name
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			res, err := pyvalue.CallMethod(pyvalue.Str(s), name, nil)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.Bool(bool(res.(pyvalue.Bool))), 0
		}, nil
	case "format":
		return func(fr *Frame) (rows.Slot, ECode) {
			f, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			vals := make([]pyvalue.Value, len(args))
			for i, a := range args {
				v, ec := a(fr)
				if ec != 0 {
					return rows.Slot{}, ec
				}
				vals[i] = v.Value()
			}
			res, err := pyvalue.StrFormat(f, vals)
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.Str(string(res.(pyvalue.Str))), 0
		}, nil
	case "zfill", "ljust", "rjust":
		name := attr.Name
		w := intArg(0)
		return func(fr *Frame) (rows.Slot, ECode) {
			s, ec := recv(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			width, ec := w(fr)
			if ec != 0 {
				return rows.Slot{}, ec
			}
			res, err := pyvalue.CallMethod(pyvalue.Str(s), name, []pyvalue.Value{pyvalue.Int(width)})
			if err != nil {
				return rows.Slot{}, pyvalue.KindOf(err)
			}
			return rows.Str(string(res.(pyvalue.Str))), 0
		}, nil
	default:
		return exitFn(pyvalue.ExcUnsupported), nil
	}
}

func strUnary(recv strFn, f func(string) string) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := recv(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		return rows.Str(f(s)), 0
	}
}

// strCaseFold is lower()/upper(): an already-folded receiver is returned
// as-is (no allocation), a changed one is folded into frame scratch and
// arena-interned.
func strCaseFold(recv strFn, upper bool) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := recv(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		return rows.Str(fr.intern(appendCaseFold(fr.Scratch[:0], s, upper))), 0
	}
}

// strReplace is str.replace with no-match handled without rebuilding, and
// rebuilt results arena-interned.
func strReplace(recv, oldA, newA strFn) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := recv(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		o, ec := oldA(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		n, ec := newA(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		if o == "" {
			// Python's ''.replace('', n) interleaves n between
			// characters; rare enough to leave to the stdlib.
			return rows.Str(strings.ReplaceAll(s, o, n)), 0
		}
		return rows.Str(fr.intern(appendReplace(fr.Scratch[:0], s, o, n))), 0
	}
}

// strStripCall is strip/lstrip/rstrip; a nil cut or a None one means
// whitespace.
func strStripCall(recv strFn, cut exprFn, mode stripMode) exprFn {
	return func(fr *Frame) (rows.Slot, ECode) {
		s, ec := recv(fr)
		if ec != 0 {
			return rows.Slot{}, ec
		}
		cutset := pyWhitespace
		if cut != nil {
			v, ec := cut(fr)
			switch {
			case ec != 0:
				return rows.Slot{}, ec
			case v.Tag == types.KindStr:
				cutset = v.S
			case v.Tag != types.KindNull:
				return rows.Slot{}, pyvalue.ExcTypeError
			}
		}
		return rows.Str(strStrip(s, cutset, mode)), 0
	}
}
