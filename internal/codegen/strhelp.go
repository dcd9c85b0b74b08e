package codegen

// strhelp.go — the scalar string operations, once.
//
// Every string operator has two drivers: a row closure (strops.go,
// ops.go) that runs it on one row's operands, and a vector
// kernel (vecstr.go) that loops it over a batch. Both call the functions
// here, so a row the vector kernel computes has the row closure's value by
// construction.
//
// Producers — operations that may build new bytes — take the append form
//
//	out, alias := appendX(dst, operands...)
//
// When bytes were appended (len(out) > len(dst)) they are the result;
// otherwise the result is alias, an existing string returned without a
// copy (the unchanged receiver, or ""). The row closure appends to the
// frame's scratch and interns into its arena (Frame.intern); the vector
// kernel appends to the batch arena and aliases it (VecState.arenaStr).

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// intern finishes a producer that appended to fr.Scratch[:0].
func (fr *Frame) intern(out []byte, alias string) string {
	if len(out) == 0 {
		return alias
	}
	fr.Scratch = out[:0]
	return fr.Arena.Intern(out)
}

// strFind is str.find / str.rfind: the byte offset of sub in s, or -1.
func strFind(s, sub string, last bool) int64 {
	if last {
		return int64(strings.LastIndex(s, sub))
	}
	return int64(strings.Index(s, sub))
}

// appendCaseFold is str.lower / str.upper. ASCII input folds bytewise
// through a table and returns an already-folded receiver as the alias;
// anything else maps rune by rune exactly like strings.ToLower/ToUpper
// (invalid UTF-8 becomes U+FFFD), without their allocation.
func appendCaseFold(dst []byte, s string, upper bool) ([]byte, string) {
	tab := &asciiLower
	if upper {
		tab = &asciiUpper
	}
	n := len(dst)
	dst = append(dst, s...)
	var seen, changed byte
	for i, c := range dst[n:] {
		f := tab[c]
		dst[n+i] = f
		seen |= c
		changed |= c ^ f
	}
	switch {
	case seen >= utf8.RuneSelf:
		dst = dst[:n]
		for _, r := range s {
			if upper {
				r = unicode.ToUpper(r)
			} else {
				r = unicode.ToLower(r)
			}
			dst = utf8.AppendRune(dst, r)
		}
	case changed == 0:
		return dst[:n], s
	}
	return dst, ""
}

// asciiLower and asciiUpper map every byte to its ASCII case fold.
var asciiLower, asciiUpper = func() (lo, up [256]byte) {
	for c := range lo {
		lo[c], up[c] = byte(c), byte(c)
		if c >= 'A' && c <= 'Z' {
			lo[c] = byte(c) + ('a' - 'A')
		}
		if c >= 'a' && c <= 'z' {
			up[c] = byte(c) - ('a' - 'A')
		}
	}
	return lo, up
}()

// appendReplace is str.replace(old, new) for a non-empty old: no match
// returns the receiver as the alias. (An empty old interleaves new between
// characters; the row closure leaves that to strings.ReplaceAll and the
// vector kernel to the row closure.)
func appendReplace(dst []byte, s, old, new string) ([]byte, string) {
	i := strings.Index(s, old)
	if i < 0 {
		return dst, s
	}
	for i >= 0 {
		dst = append(dst, s[:i]...)
		dst = append(dst, new...)
		s = s[i+len(old):]
		i = strings.Index(s, old)
	}
	return append(dst, s...), ""
}

// appendConcat is a + b: an empty side returns the other as the alias.
func appendConcat(dst []byte, a, b string) ([]byte, string) {
	if a == "" {
		return dst, b
	}
	if b == "" {
		return dst, a
	}
	return append(append(dst, a...), b...), ""
}

// stripMode selects strip / lstrip / rstrip.
type stripMode uint8

const (
	stripBoth stripMode = iota
	stripLeft
	stripRight
)

func stripModeOf(method string) stripMode {
	switch method {
	case "lstrip":
		return stripLeft
	case "rstrip":
		return stripRight
	}
	return stripBoth
}

// pyWhitespace is the cutset of an argument-less strip.
const pyWhitespace = " \t\n\r\v\f"

// strStrip is the strip family over cutset; the result is a substring of
// s.
func strStrip(s, cutset string, mode stripMode) string {
	switch mode {
	case stripLeft:
		return strings.TrimLeft(s, cutset)
	case stripRight:
		return strings.TrimRight(s, cutset)
	}
	return strings.Trim(s, cutset)
}

// strIndex is s[i] (one byte, negative i counting from the end); false
// when i is out of range (IndexError).
func strIndex(s string, i int64) (string, bool) {
	n := int64(len(s))
	if i < 0 {
		i += n
	}
	if i < 0 || i >= n {
		return "", false
	}
	return s[i : i+1], true
}

// strSlice is the unit-step slice s[lo:hi]; a nil bound is an omitted one.
func strSlice(s string, lo, hi *int64) string {
	start, stop := pyvalue.SliceBounds(lo, hi, 1, int64(len(s)))
	if start >= stop {
		return ""
	}
	return s[start:stop]
}

// strCompare is the single-step comparison a op b (and the substring test
// a in b) over two strings.
func strCompare(op pyvalue.Op, a, b string) bool {
	switch op {
	case pyvalue.OpIn:
		return strings.Contains(b, a)
	case pyvalue.OpNotIn:
		return !strings.Contains(b, a)
	}
	return cmpOrdered(op, a, b)
}
