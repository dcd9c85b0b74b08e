//go:build !race

// A -race build's sync.Pool drops items at random, so the token buffer
// is not reliably recycled there.

package pyast

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestParseUDFBytesPerParse pins what one parse of the serve.cold UDF
// (40 conditional terms, 2.1 KB of source) allocates: about 85 KB, the
// AST. The token buffer (40 KB for this source) is recycled across
// parses; a parse that allocated it again would read about 126 KB.
func TestParseUDFBytesPerParse(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("lambda x: x['a'] + k0")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, " + (x['a'] * %d if x['a'] %% %d == 0 else %d - x['a'])", i+1, i+2, i)
	}
	src := sb.String()
	if _, err := ParseUDF(src); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ParseUDF(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ParseUDF: %d B per parse of %d source bytes", perParse, len(src))
	if ceiling := uint64(96 << 10); perParse > ceiling {
		t.Fatalf("ParseUDF allocates %d B per parse, ceiling %d", perParse, ceiling)
	}
}
