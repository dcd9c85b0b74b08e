package pyast

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseUDF holds the lexer and parser to their invariants on any
// input: no panic; real tokens (names, numbers, strings, operators,
// keywords) at strictly increasing positions and every token at a
// non-decreasing one; every error at a position inside the source; and
// a deterministic parse. Seeds are the UDF corpus and the malformed
// sources of the goldens.
func FuzzParseUDF(f *testing.F) {
	for _, u := range loadCorpus(f, corpusFile) {
		f.Add(u.Src)
	}
	for _, src := range malformedSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		norm := strings.ReplaceAll(strings.ReplaceAll(src, "\r\n", "\n"), "\r", "\n")
		lines := strings.Split(norm, "\n")
		inside := func(p Pos) bool {
			return p.Line >= 1 && p.Line <= len(lines) && p.Col >= 1 && p.Col <= len(lines[p.Line-1])+1
		}
		less := func(a, b Pos) bool { return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col }
		checkErr := func(what string, err error) {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("%s error %v has no position", what, err)
			}
			if !inside(pe.Pos) {
				t.Fatalf("%s error %v: position outside the source %q", what, err, src)
			}
		}

		toks, err := Lex(src)
		if err != nil {
			checkErr("lex", err)
		} else {
			var last, lastReal Pos
			for i := range toks {
				tk := &toks[i]
				p := tk.Pos()
				if !inside(p) {
					t.Fatalf("token %s outside the source %q", tk, src)
				}
				if less(p, last) {
					t.Fatalf("token %s before the previous one at %s", tk, last)
				}
				last = p
				switch tk.Kind {
				case TokNewline, TokIndent, TokDedent, TokEOF:
					continue
				}
				if i > 0 && !less(lastReal, p) && lastReal != (Pos{}) {
					t.Fatalf("token %s not after the previous real token at %s", tk, lastReal)
				}
				lastReal = p
			}
			if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
				t.Fatalf("token stream of %q does not end in EOF", src)
			}
		}

		render := func() string {
			var sb strings.Builder
			renderParse(&sb, src)
			return sb.String()
		}
		first := render()
		if again := render(); again != first {
			t.Fatalf("parse of %q is not deterministic:\n%s\nthen\n%s", src, first, again)
		}
		if _, err := ParseUDF(src); err != nil {
			checkErr("parse", err)
		}
	})
}
