package spec

import (
	"github.com/gotuplex/tuplex/internal/core"
)

// ResultRows returns an engine result's output rows in their plain
// JSON-encodable form ([]any cells: nil, bool, int64, float64, string,
// []any, map[string]any), at most limit of them (-1 = all). The engine
// boxes only Options.CollectLimit rows, so a caller that caps should
// set that to the same limit: the rows past it are then neither boxed
// nor retained. Compare len(result) against ResultLen to detect
// truncation.
func ResultRows(res *core.Result, limit int) [][]any {
	out := res.Rows
	if limit >= 0 && limit < len(out) {
		if limit == 0 {
			return nil
		}
		out = out[:limit:limit]
	}
	return out
}

// ResultLen reports a collect result's total output row count before any
// row limit.
func ResultLen(res *core.Result) int {
	return int(res.Metrics.Counters.OutputRows.Load())
}
