package interp

import (
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// evalCall dispatches function and method calls: builtins, module
// functions (re, random, string) and methods on values.
func (e *env) evalCall(call *pyast.Call) (pyvalue.Value, error) {
	// Method or module-function call: obj.name(...).
	if attr, ok := call.Fn.(*pyast.Attr); ok {
		if mod, ok := attr.X.(*pyast.Name); ok && isModuleName(mod.Ident) {
			if _, shadowed := e.vars[mod.Ident]; !shadowed {
				args, err := e.evalAll(call.Args)
				if err != nil {
					return nil, err
				}
				return e.callModule(mod.Ident, attr.Name, args)
			}
		}
		recv, err := e.eval(attr.X)
		if err != nil {
			return nil, err
		}
		if err := pyvalue.LookupMethod(recv, attr.Name); err != nil {
			return nil, err
		}
		args, err := e.evalAll(call.Args)
		if err != nil {
			return nil, err
		}
		return pyvalue.CallMethod(recv, attr.Name, args)
	}

	name, ok := call.Fn.(*pyast.Name)
	if !ok {
		// Calling a computed expression: evaluate and call if callable.
		fnv, err := e.eval(call.Fn)
		if err != nil {
			return nil, err
		}
		return e.callValue(fnv, call)
	}
	// A local or global binding shadows builtins.
	if v, bound := e.vars[name.Ident]; bound {
		return e.callValue(v, call)
	}
	if v, bound := e.ip.Globals[name.Ident]; bound {
		if _, isFunc := v.(*pyvalue.Func); isFunc {
			return e.callValue(v, call)
		}
	}
	args, err := e.evalAll(call.Args)
	if err != nil {
		return nil, err
	}
	return e.callBuiltin(name.Ident, args, call)
}

func (e *env) callValue(fnv pyvalue.Value, call *pyast.Call) (pyvalue.Value, error) {
	f, ok := fnv.(*pyvalue.Func)
	if !ok {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "%q object is not callable", pyvalue.TypeName(fnv))
	}
	args, err := e.evalAll(call.Args)
	if err != nil {
		return nil, err
	}
	return f.Call(args)
}

func isModuleName(n string) bool {
	return n == "re" || n == "random" || n == "string" || n == "math"
}

func (e *env) callModule(mod, fn string, args []pyvalue.Value) (pyvalue.Value, error) {
	switch mod + "." + fn {
	case "re.search":
		return e.reSearch(args)
	case "re.sub":
		return e.reSub(args)
	case "re.match":
		return e.reMatch(args)
	case "random.choice":
		return e.randomChoice(args)
	case "string.capwords":
		if len(args) != 1 {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "capwords() takes 1 argument")
		}
		s, ok := args[0].(pyvalue.Str)
		if !ok {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "capwords() argument must be str")
		}
		return pyvalue.Str(pyvalue.Capwords(string(s))), nil
	case "math.floor":
		f, err := pyvalue.ToFloat(args[0])
		if err != nil {
			return nil, err
		}
		return pyvalue.FloorDiv(f, pyvalue.Int(1))
	default:
		return nil, pyvalue.Raise(pyvalue.ExcAttributeError, "module %q has no attribute %q", mod, fn)
	}
}

func twoStrArgs(what string, args []pyvalue.Value) (string, string, error) {
	if len(args) != 2 {
		return "", "", pyvalue.Raise(pyvalue.ExcTypeError, "%s takes 2 arguments (%d given)", what, len(args))
	}
	a, ok := args[0].(pyvalue.Str)
	if !ok {
		return "", "", pyvalue.Raise(pyvalue.ExcTypeError, "%s: expected string, got %s", what, pyvalue.TypeName(args[0]))
	}
	b, ok := args[1].(pyvalue.Str)
	if !ok {
		return "", "", pyvalue.Raise(pyvalue.ExcTypeError, "%s: expected string, got %s", what, pyvalue.TypeName(args[1]))
	}
	return string(a), string(b), nil
}

func (e *env) reSearch(args []pyvalue.Value) (pyvalue.Value, error) {
	pat, s, err := twoStrArgs("re.search()", args)
	if err != nil {
		return nil, err
	}
	re, err := e.ip.Regexp(pat)
	if err != nil {
		return nil, err
	}
	saves := re.Search(s)
	if saves == nil {
		return pyvalue.None{}, nil
	}
	return matchValue(s, saves), nil
}

func (e *env) reMatch(args []pyvalue.Value) (pyvalue.Value, error) {
	pat, s, err := twoStrArgs("re.match()", args)
	if err != nil {
		return nil, err
	}
	re, err := e.ip.Regexp(pat)
	if err != nil {
		return nil, err
	}
	saves := re.MatchPrefix(s)
	if saves == nil {
		return pyvalue.None{}, nil
	}
	return matchValue(s, saves), nil
}

func matchValue(s string, saves []int) *pyvalue.Match {
	n := len(saves) / 2
	m := &pyvalue.Match{Groups: make([]string, n), Present: make([]bool, n)}
	for i := range n {
		if saves[2*i] >= 0 {
			m.Groups[i] = s[saves[2*i]:saves[2*i+1]]
			m.Present[i] = true
		}
	}
	return m
}

func (e *env) reSub(args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) != 3 {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "re.sub() takes 3 arguments (%d given)", len(args))
	}
	pat, ok := args[0].(pyvalue.Str)
	if !ok {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "re.sub(): pattern must be str")
	}
	repl, ok := args[1].(pyvalue.Str)
	if !ok {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "re.sub(): repl must be str")
	}
	s, ok := args[2].(pyvalue.Str)
	if !ok {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "expected string or bytes-like object")
	}
	re, err := e.ip.Regexp(string(pat))
	if err != nil {
		return nil, err
	}
	return pyvalue.Str(re.Sub(string(repl), string(s))), nil
}

func (e *env) randomChoice(args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) != 1 {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "choice() takes 1 argument")
	}
	switch a := args[0].(type) {
	case pyvalue.Str:
		if len(a) == 0 {
			return nil, pyvalue.Raise(pyvalue.ExcIndexError, "Cannot choose from an empty sequence")
		}
		return pyvalue.Str(e.ip.Rand.Choice(string(a))), nil
	case *pyvalue.List:
		if len(a.Items) == 0 {
			return nil, pyvalue.Raise(pyvalue.ExcIndexError, "Cannot choose from an empty sequence")
		}
		return a.Items[e.ip.Rand.Intn(len(a.Items))], nil
	case *pyvalue.Tuple:
		if len(a.Items) == 0 {
			return nil, pyvalue.Raise(pyvalue.ExcIndexError, "Cannot choose from an empty sequence")
		}
		return a.Items[e.ip.Rand.Intn(len(a.Items))], nil
	default:
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "choice() argument must be a sequence")
	}
}

func (e *env) callBuiltin(name string, args []pyvalue.Value, call *pyast.Call) (pyvalue.Value, error) {
	switch name {
	case "len":
		if len(args) != 1 {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "len() takes exactly one argument (%d given)", len(args))
		}
		return pyvalue.Len(args[0])
	case "int":
		if len(args) == 0 {
			return pyvalue.Int(0), nil
		}
		return pyvalue.ToInt(args[0])
	case "float":
		if len(args) == 0 {
			return pyvalue.Float(0), nil
		}
		return pyvalue.ToFloat(args[0])
	case "str":
		if len(args) == 0 {
			return pyvalue.Str(""), nil
		}
		return pyvalue.Str(pyvalue.ToStr(args[0])), nil
	case "bool":
		if len(args) == 0 {
			return pyvalue.Bool(false), nil
		}
		return pyvalue.Bool(pyvalue.Truth(args[0])), nil
	case "abs":
		if len(args) != 1 {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "abs() takes exactly one argument")
		}
		return pyvalue.Abs(args[0])
	case "min":
		return pyvalue.MinMax(args, false)
	case "max":
		return pyvalue.MinMax(args, true)
	case "round":
		if len(args) == 0 {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "round() missing required argument")
		}
		var nd *int64
		rest := args[1:]
		// round(x, ndigits=...) keyword form.
		for i, kw := range call.KwNames {
			if kw == "ndigits" {
				v, err := e.eval(call.KwArgs[i])
				if err != nil {
					return nil, err
				}
				rest = append(rest, v)
			}
		}
		if len(rest) >= 1 {
			if n, ok := rest[0].(pyvalue.Int); ok {
				x := int64(n)
				nd = &x
			}
		}
		return pyvalue.Round(args[0], nd)
	case "range":
		return rangeValues(args)
	case "ord":
		s, ok := args[0].(pyvalue.Str)
		if !ok || len(s) != 1 {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "ord() expected a character")
		}
		return pyvalue.Int(s[0]), nil
	case "chr":
		n, ok := args[0].(pyvalue.Int)
		if !ok {
			return nil, pyvalue.Raise(pyvalue.ExcTypeError, "an integer is required")
		}
		if n < 0 || n > 127 {
			return nil, pyvalue.Raise(pyvalue.ExcValueError, "chr() arg not in supported range")
		}
		return pyvalue.Str(string(rune(n))), nil
	case "sorted":
		return sortedBuiltin(args)
	case "sum":
		return sumBuiltin(args)
	// Module functions imported under flat aliases, as the paper's
	// pipelines do (`from random import choice as random_choice`).
	case "re_search":
		return e.reSearch(args)
	case "re_sub":
		return e.reSub(args)
	case "re_match":
		return e.reMatch(args)
	case "random_choice":
		return e.randomChoice(args)
	case "string_capwords":
		return e.callModule("string", "capwords", args)
	default:
		return nil, pyvalue.Raise(pyvalue.ExcNameError, "name %q is not defined", name)
	}
}

func rangeValues(args []pyvalue.Value) (pyvalue.Value, error) {
	var start, stop, step int64 = 0, 0, 1
	get := func(v pyvalue.Value) (int64, error) {
		n, ok := v.(pyvalue.Int)
		if !ok {
			if b, isBool := v.(pyvalue.Bool); isBool {
				if b {
					return 1, nil
				}
				return 0, nil
			}
			return 0, pyvalue.Raise(pyvalue.ExcTypeError,
				"%q object cannot be interpreted as an integer", pyvalue.TypeName(v))
		}
		return int64(n), nil
	}
	var err error
	switch len(args) {
	case 1:
		stop, err = get(args[0])
	case 2:
		if start, err = get(args[0]); err == nil {
			stop, err = get(args[1])
		}
	case 3:
		if start, err = get(args[0]); err == nil {
			if stop, err = get(args[1]); err == nil {
				step, err = get(args[2])
			}
		}
	default:
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "range expected 1 to 3 arguments, got %d", len(args))
	}
	if err != nil {
		return nil, err
	}
	if step == 0 {
		return nil, pyvalue.Raise(pyvalue.ExcValueError, "range() arg 3 must not be zero")
	}
	out := &pyvalue.List{}
	if step > 0 {
		for i := start; i < stop; i += step {
			out.Items = append(out.Items, pyvalue.Int(i))
		}
	} else {
		for i := start; i > stop; i += step {
			out.Items = append(out.Items, pyvalue.Int(i))
		}
	}
	return out, nil
}

func sortedBuiltin(args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) != 1 {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "sorted expected 1 argument, got %d", len(args))
	}
	items, err := Iterate(args[0])
	if err != nil {
		return nil, err
	}
	out := append([]pyvalue.Value(nil), items...)
	// Insertion sort with Python comparison semantics (raises on
	// unorderable pairs); n is small in UDF usage.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			lt, err := pyvalue.Compare(pyvalue.OpLt, out[j], out[j-1])
			if err != nil {
				return nil, err
			}
			if !pyvalue.Truth(lt) {
				break
			}
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return &pyvalue.List{Items: out}, nil
}

func sumBuiltin(args []pyvalue.Value) (pyvalue.Value, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, pyvalue.Raise(pyvalue.ExcTypeError, "sum expected 1 or 2 arguments")
	}
	items, err := Iterate(args[0])
	if err != nil {
		return nil, err
	}
	var acc pyvalue.Value = pyvalue.Int(0)
	if len(args) == 2 {
		acc = args[1]
	}
	for _, it := range items {
		acc, err = pyvalue.Add(acc, it)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
