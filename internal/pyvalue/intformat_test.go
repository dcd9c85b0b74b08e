package pyvalue

import (
	"math"
	"testing"
)

// intFormatOracle renders format over the ints through the generic
// formatters IntFormat stands in for.
func intFormatOracle(percent bool, format string, args []int64) (string, bool) {
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = Int(a)
	}
	var (
		v   Value
		err error
	)
	switch {
	case !percent:
		v, err = StrFormat(format, vals)
	case len(vals) == 1:
		v, err = PercentFormat(format, vals[0])
	default:
		v, err = PercentFormat(format, &Tuple{Items: vals})
	}
	if err != nil {
		return "", false
	}
	return string(v.(Str)), true
}

// checkIntFormat holds a compiled format to the generic formatter for
// every argument count it accepts up to three.
func checkIntFormat(t *testing.T, percent bool, format string, a, b, c int64) {
	t.Helper()
	compile := CompileStrFormatInt
	if percent {
		compile = CompilePercentInt
	}
	f, ok := compile(format)
	if !ok {
		return
	}
	all := []int64{a, b, c}
	for n := 1; n <= len(all); n++ {
		if !f.Accepts(n) {
			continue
		}
		want, ok := intFormatOracle(percent, format, all[:n])
		if !ok {
			t.Fatalf("percent=%v %q compiled for %d ints, but the generic formatter raises", percent, format, n)
		}
		if got := string(f.Append(nil, all[:n])); got != want {
			t.Fatalf("percent=%v %q %% %v = %q, generic formatter says %q", percent, format, all[:n], got, want)
		}
	}
}

func TestIntFormat(t *testing.T) {
	ints := []int64{0, 5, -5, 42, 2134, -100000, math.MaxInt64, math.MinInt64}
	for _, format := range []string{
		"%05d", "%d", "%i-%d", "%-6d|", "%+d", "% d", "%+05d", "%%%d%%", "zip %05d!", "%3d%03d%-3d", "%0d", "%-05d",
		"%s", "%.2d", "%#d", "%", "%5", "%x", "%d %s",
	} {
		for _, a := range ints {
			checkIntFormat(t, true, format, a, -a, 7)
		}
	}
	for _, format := range []string{
		"{:02}:{:02}", "{}", "{}{}", "{0}-{1}", "{1}{0}{1}", "{:d}", "{:5}|", "{:05d}", "{0:03}", "{{{}}}", "a{}b{}c", "{:0}", "{:00}", "{:007}",
		"{:>5}", "{:+d}", "{:,}", "{:.2}", "{", "}", "{0}{}", "{}{0}", "{:x}", "{a}", "{:5s}", "{-1}",
	} {
		for _, a := range ints {
			checkIntFormat(t, false, format, a, -a, 7)
		}
	}
	for _, c := range []struct {
		percent bool
		format  string
		n       int
		accepts bool
	}{
		{true, "%d", 1, true}, {true, "%d", 2, false}, {true, "%d%d", 1, false}, {true, "x", 1, false},
		{false, "{}", 1, true}, {false, "{}", 2, true}, {false, "{1}", 1, false}, {false, "{1}", 2, true},
	} {
		compile := CompileStrFormatInt
		if c.percent {
			compile = CompilePercentInt
		}
		f, ok := compile(c.format)
		if !ok || f.Accepts(c.n) != c.accepts {
			t.Errorf("%q (percent=%v): compiled=%v, Accepts(%d) != %v", c.format, c.percent, ok, c.n, c.accepts)
		}
	}
}

func FuzzIntFormat(f *testing.F) {
	f.Add(true, "%05d", int64(2134), int64(0), int64(0))
	f.Add(false, "{:02}:{:02}", int64(9), int64(5), int64(0))
	f.Add(true, "%-4d|%+i", int64(-3), int64(3), int64(0))
	f.Add(false, "{1:03}{0}", int64(-3), int64(3), int64(0))
	f.Fuzz(func(t *testing.T, percent bool, format string, a, b, c int64) {
		checkIntFormat(t, percent, format, a, b, c)
	})
}
