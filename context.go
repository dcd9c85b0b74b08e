package tuplex

import (
	"context"
	"fmt"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/logical"
)

// ErrCanceled reports that an execution stopped because its context was
// canceled or its deadline expired. Errors from the *Context entry
// points wrap it; test with errors.Is(err, tuplex.ErrCanceled) to tell
// cancellation apart from data or pipeline errors. Cancellation is
// observed at chunk/task boundaries — never mid-row — so a canceled run
// stops within one partition's worth of work and returns no partial
// result.
var ErrCanceled = core.ErrCanceled

// CollectContext is Collect under ctx: cancel ctx (or let its deadline
// expire) to abandon the run early with an error wrapping ErrCanceled.
func (d *DataSet) CollectContext(ctx context.Context) (*Result, error) {
	return d.runCtx(ctx, core.SinkCollect, "", -1)
}

// TakeContext is Take under ctx; see CollectContext for cancellation
// semantics.
func (d *DataSet) TakeContext(ctx context.Context, n int) (*Result, error) {
	return d.runCtx(ctx, core.SinkCollect, "", n)
}

// ToCSVContext is ToCSV under ctx; see CollectContext for cancellation
// semantics.
func (d *DataSet) ToCSVContext(ctx context.Context, path string) (*Result, error) {
	return d.runCtx(ctx, core.SinkCSV, path, -1)
}

// AggregateContext is Aggregate under ctx; see CollectContext for
// cancellation semantics.
func (d *DataSet) AggregateContext(ctx context.Context, agg, comb UDFDef, initial any) (any, *Result, error) {
	if d.err != nil {
		return nil, nil, d.err
	}
	aggSpec, err := d.udf(agg)
	if err != nil {
		return nil, nil, err
	}
	combSpec, err := d.udf(comb)
	if err != nil {
		return nil, nil, err
	}
	ds := d.chain(&logical.AggregateOp{Agg: aggSpec, Comb: combSpec, Initial: boxValue(initial)})
	res, err := ds.runCtx(ctx, core.SinkCollect, "", -1)
	if err != nil {
		return nil, nil, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return nil, res, fmt.Errorf("tuplex: aggregate produced unexpected shape")
	}
	return res.Rows[0][0], res, nil
}
