package pyvalue

import (
	"strings"
)

// CallMethod dispatches obj.name(args). It implements the string, list,
// dict and match-object methods used by data-wrangling UDFs.
func CallMethod(obj Value, name string, args []Value) (Value, error) {
	switch o := obj.(type) {
	case Str:
		return strMethod(o, name, args)
	case *List:
		return listMethod(o, name, args)
	case *Dict:
		return dictMethod(o, name, args)
	case *Match:
		return matchMethod(o, name, args)
	case None:
		return nil, Raise(ExcAttributeError, "'NoneType' object has no attribute %q", name)
	default:
		return nil, Raise(ExcAttributeError, "%q object has no attribute %q", TypeName(obj), name)
	}
}

// LookupMethod is the attribute lookup Python performs before it
// evaluates a method call's arguments: nil when obj's type has methods,
// otherwise the AttributeError CallMethod raises (None.strip(x[0]) fails
// on the receiver, not on x[0]).
func LookupMethod(obj Value, name string) error {
	switch obj.(type) {
	case Str, *List, *Dict, *Match:
		return nil
	}
	_, err := CallMethod(obj, name, nil)
	return err
}

func wantStrArg(name string, args []Value, i int) (string, error) {
	if i >= len(args) {
		return "", Raise(ExcTypeError, "%s() missing argument %d", name, i+1)
	}
	s, ok := args[i].(Str)
	if !ok {
		return "", Raise(ExcTypeError, "%s() argument must be str, not %q", name, TypeName(args[i]))
	}
	return string(s), nil
}

func strMethod(s Str, name string, args []Value) (Value, error) {
	str := string(s)
	switch name {
	case "find", "rfind", "index", "rindex":
		sub, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		lo, hi := int64(0), int64(len(str))
		if len(args) >= 2 {
			if v, ok := asInt(args[1]); ok {
				lo = v
			}
		}
		if len(args) >= 3 {
			if v, ok := asInt(args[2]); ok {
				hi = v
			}
		}
		start, stop := SliceBounds(&lo, &hi, 1, int64(len(str)))
		region := ""
		if start < stop {
			region = str[start:stop]
		}
		var idx int
		if name == "find" || name == "index" {
			idx = strings.Index(region, sub)
		} else {
			idx = strings.LastIndex(region, sub)
		}
		if idx < 0 {
			if name == "index" || name == "rindex" {
				return nil, Raise(ExcValueError, "substring not found")
			}
			return Int(-1), nil
		}
		return Int(int64(idx) + start), nil
	case "lower":
		return Str(strings.ToLower(str)), nil
	case "upper":
		return Str(strings.ToUpper(str)), nil
	case "strip", "lstrip", "rstrip":
		cutset := " \t\n\r\v\f"
		if len(args) >= 1 {
			if _, isNone := args[0].(None); !isNone {
				c, err := wantStrArg(name, args, 0)
				if err != nil {
					return nil, err
				}
				cutset = c
			}
		}
		switch name {
		case "strip":
			return Str(strings.Trim(str, cutset)), nil
		case "lstrip":
			return Str(strings.TrimLeft(str, cutset)), nil
		default:
			return Str(strings.TrimRight(str, cutset)), nil
		}
	case "replace":
		old, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		new, err := wantStrArg(name, args, 1)
		if err != nil {
			return nil, err
		}
		count := -1
		if len(args) >= 3 {
			if v, ok := asInt(args[2]); ok {
				count = int(v)
			}
		}
		return Str(strings.Replace(str, old, new, count)), nil
	case "split":
		if len(args) == 0 || args[0].Kind() == KNone {
			return splitWhitespace(str), nil
		}
		sep, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		if sep == "" {
			return nil, Raise(ExcValueError, "empty separator")
		}
		n := -1
		if len(args) >= 2 {
			if v, ok := asInt(args[1]); ok && v >= 0 {
				n = int(v) + 1
			}
		}
		parts := strings.SplitN(str, sep, n)
		items := make([]Value, len(parts))
		for i, p := range parts {
			items[i] = Str(p)
		}
		return &List{Items: items}, nil
	case "join":
		if len(args) != 1 {
			return nil, Raise(ExcTypeError, "join() takes exactly one argument (%d given)", len(args))
		}
		var items []Value
		switch a := args[0].(type) {
		case *List:
			items = a.Items
		case *Tuple:
			items = a.Items
		default:
			return nil, Raise(ExcTypeError, "can only join an iterable")
		}
		parts := make([]string, len(items))
		for i, it := range items {
			is, ok := it.(Str)
			if !ok {
				return nil, Raise(ExcTypeError, "sequence item %d: expected str instance, %s found", i, TypeName(it))
			}
			parts[i] = string(is)
		}
		return Str(strings.Join(parts, str)), nil
	case "startswith":
		p, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		return Bool(strings.HasPrefix(str, p)), nil
	case "endswith":
		p, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		return Bool(strings.HasSuffix(str, p)), nil
	case "capitalize":
		return Str(Capitalize(str)), nil
	case "title":
		return Str(TitleCase(str)), nil
	case "format":
		return StrFormat(str, args)
	case "zfill":
		if len(args) != 1 {
			return nil, Raise(ExcTypeError, "zfill() takes exactly 1 argument")
		}
		w, ok := asInt(args[0])
		if !ok {
			return nil, Raise(ExcTypeError, "zfill() argument must be int")
		}
		return Str(zfill(str, int(w))), nil
	case "count":
		sub, err := wantStrArg(name, args, 0)
		if err != nil {
			return nil, err
		}
		if sub == "" {
			return Int(int64(len(str) + 1)), nil
		}
		return Int(int64(strings.Count(str, sub))), nil
	case "isdigit":
		return Bool(len(str) > 0 && strings.IndexFunc(str, func(r rune) bool { return r < '0' || r > '9' }) < 0), nil
	case "isalpha":
		return Bool(len(str) > 0 && strings.IndexFunc(str, func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z')
		}) < 0), nil
	case "isalnum":
		return Bool(len(str) > 0 && strings.IndexFunc(str, func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
		}) < 0), nil
	case "isspace":
		return Bool(len(str) > 0 && strings.TrimSpace(str) == ""), nil
	case "islower":
		return Bool(strings.ToLower(str) == str && strings.ToUpper(str) != str), nil
	case "isupper":
		return Bool(strings.ToUpper(str) == str && strings.ToLower(str) != str), nil
	case "ljust":
		return just(str, args, false)
	case "rjust":
		return just(str, args, true)
	case "swapcase":
		return Str(strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z':
				return r - 32
			case r >= 'A' && r <= 'Z':
				return r + 32
			default:
				return r
			}
		}, str)), nil
	default:
		return nil, Raise(ExcAttributeError, "'str' object has no attribute %q", name)
	}
}

func just(str string, args []Value, right bool) (Value, error) {
	if len(args) < 1 {
		return nil, Raise(ExcTypeError, "just() takes at least 1 argument")
	}
	w, ok := asInt(args[0])
	if !ok {
		return nil, Raise(ExcTypeError, "just() width must be int")
	}
	fill := " "
	if len(args) >= 2 {
		f, err := wantStrArg("just", args, 1)
		if err != nil {
			return nil, err
		}
		if len(f) != 1 {
			return nil, Raise(ExcTypeError, "the fill character must be exactly one character long")
		}
		fill = f
	}
	pad := int(w) - len(str)
	if pad <= 0 {
		return Str(str), nil
	}
	if right {
		return Str(strings.Repeat(fill, pad) + str), nil
	}
	return Str(str + strings.Repeat(fill, pad)), nil
}

func zfill(s string, width int) string {
	if len(s) >= width {
		return s
	}
	sign := ""
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		sign, s = s[:1], s[1:]
	}
	return sign + strings.Repeat("0", width-len(sign)-len(s)) + s
}

// splitWhitespace matches Python's str.split() with no separator: runs of
// whitespace separate fields and leading/trailing whitespace is dropped.
func splitWhitespace(s string) *List {
	fields := strings.Fields(s)
	items := make([]Value, len(fields))
	for i, f := range fields {
		items[i] = Str(f)
	}
	return &List{Items: items}
}

// Capitalize implements str.capitalize: first character upper, rest
// lower.
func Capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + strings.ToLower(s[1:])
}

// TitleCase implements str.title (ASCII).
func TitleCase(s string) string {
	var sb strings.Builder
	prevAlpha := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		isAlpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		switch {
		case isAlpha && !prevAlpha:
			sb.WriteString(strings.ToUpper(string(c)))
		case isAlpha:
			sb.WriteString(strings.ToLower(string(c)))
		default:
			sb.WriteByte(c)
		}
		prevAlpha = isAlpha
	}
	return sb.String()
}

// Capwords implements string.capwords(s): split on whitespace, capitalize
// each word, join with single spaces.
func Capwords(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		fields[i] = Capitalize(f)
	}
	return strings.Join(fields, " ")
}

func listMethod(l *List, name string, args []Value) (Value, error) {
	switch name {
	case "append":
		if len(args) != 1 {
			return nil, Raise(ExcTypeError, "append() takes exactly one argument (%d given)", len(args))
		}
		l.Items = append(l.Items, args[0])
		return None{}, nil
	case "extend":
		if len(args) != 1 {
			return nil, Raise(ExcTypeError, "extend() takes exactly one argument")
		}
		switch a := args[0].(type) {
		case *List:
			l.Items = append(l.Items, a.Items...)
		case *Tuple:
			l.Items = append(l.Items, a.Items...)
		default:
			return nil, Raise(ExcTypeError, "%q object is not iterable", TypeName(args[0]))
		}
		return None{}, nil
	case "pop":
		if len(l.Items) == 0 {
			return nil, Raise(ExcIndexError, "pop from empty list")
		}
		i := int64(len(l.Items) - 1)
		if len(args) >= 1 {
			v, ok := asInt(args[0])
			if !ok {
				return nil, Raise(ExcTypeError, "pop() argument must be int")
			}
			i = v
			if i < 0 {
				i += int64(len(l.Items))
			}
			if i < 0 || i >= int64(len(l.Items)) {
				return nil, Raise(ExcIndexError, "pop index out of range")
			}
		}
		v := l.Items[i]
		l.Items = append(l.Items[:i], l.Items[i+1:]...)
		return v, nil
	case "count":
		if len(args) != 1 {
			return nil, Raise(ExcTypeError, "count() takes exactly one argument")
		}
		n := int64(0)
		for _, it := range l.Items {
			if Equal(it, args[0]) {
				n++
			}
		}
		return Int(n), nil
	case "index":
		if len(args) < 1 {
			return nil, Raise(ExcTypeError, "index() takes at least 1 argument")
		}
		for i, it := range l.Items {
			if Equal(it, args[0]) {
				return Int(int64(i)), nil
			}
		}
		return nil, Raise(ExcValueError, "%s is not in list", Repr(args[0]))
	case "reverse":
		for i, j := 0, len(l.Items)-1; i < j; i, j = i+1, j-1 {
			l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
		}
		return None{}, nil
	default:
		return nil, Raise(ExcAttributeError, "'list' object has no attribute %q", name)
	}
}

func dictMethod(d *Dict, name string, args []Value) (Value, error) {
	switch name {
	case "get":
		if len(args) < 1 {
			return nil, Raise(ExcTypeError, "get expected at least 1 argument, got 0")
		}
		k, ok := args[0].(Str)
		if !ok {
			if len(args) >= 2 {
				return args[1], nil
			}
			return None{}, nil
		}
		if v, found := d.Get(string(k)); found {
			return v, nil
		}
		if len(args) >= 2 {
			return args[1], nil
		}
		return None{}, nil
	case "keys":
		items := make([]Value, 0, d.Len())
		for _, k := range d.Keys() {
			items = append(items, Str(k))
		}
		return &List{Items: items}, nil
	case "values":
		items := make([]Value, 0, d.Len())
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			items = append(items, v)
		}
		return &List{Items: items}, nil
	case "items":
		items := make([]Value, 0, d.Len())
		for _, k := range d.Keys() {
			v, _ := d.Get(k)
			items = append(items, &Tuple{Items: []Value{Str(k), v}})
		}
		return &List{Items: items}, nil
	default:
		return nil, Raise(ExcAttributeError, "'dict' object has no attribute %q", name)
	}
}

func matchMethod(m *Match, name string, args []Value) (Value, error) {
	switch name {
	case "group":
		i := int64(0)
		if len(args) >= 1 {
			v, ok := asInt(args[0])
			if !ok {
				return nil, Raise(ExcIndexError, "no such group")
			}
			i = v
		}
		if i < 0 || int(i) >= len(m.Groups) {
			return nil, Raise(ExcIndexError, "no such group")
		}
		if !m.Present[i] {
			return None{}, nil
		}
		return Str(m.Groups[i]), nil
	case "groups":
		items := make([]Value, 0, len(m.Groups)-1)
		for i := 1; i < len(m.Groups); i++ {
			if m.Present[i] {
				items = append(items, Str(m.Groups[i]))
			} else {
				items = append(items, None{})
			}
		}
		return &Tuple{Items: items}, nil
	default:
		return nil, Raise(ExcAttributeError, "'re.Match' object has no attribute %q", name)
	}
}
