package tuplex

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// bigDataSet is large enough that a run takes well over a millisecond,
// so tight deadlines reliably fire mid-stream.
func bigDataSet(c *Context) *DataSet {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*3)
	}
	return c.CSV("", CSVData([]byte(sb.String())), CSVHeader(true)).
		WithColumn("c", UDF("lambda x: x['a'] + x['b']")).
		Filter(UDF("lambda x: x['c'] % 2 == 0")).
		Map(UDF("lambda x: (x['a'], x['c'] * 2)"))
}

// TestContextPreCanceled: an already-canceled context stops the run
// before any work, with the distinct cancellation error.
func TestContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewContext(WithExecutors(1))
	d := c.Parallelize([][]any{{int64(1)}}, []string{"a"})
	if _, err := d.CollectContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if _, err := d.TakeContext(ctx, 1); !errors.Is(err, ErrCanceled) {
		t.Fatalf("take: want ErrCanceled, got %v", err)
	}
	if _, err := d.ToCSVContext(ctx, ""); !errors.Is(err, ErrCanceled) {
		t.Fatalf("tocsv: want ErrCanceled, got %v", err)
	}
	if _, _, err := d.AggregateContext(ctx,
		UDF("lambda acc, row: acc + row"), UDF("lambda a, b: a + b"), int64(0)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("aggregate: want ErrCanceled, got %v", err)
	}
	// Cancellation must also be distinguishable from generic errors.
	if _, err := d.CollectContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not preserved: %v", err)
	}
}

// TestContextDeadlineMidStream: a deadline expiring mid-run abandons
// the pipeline at a chunk boundary with ErrCanceled rather than
// returning partial rows.
func TestContextDeadlineMidStream(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := bigDataSet(NewContext(WithExecutors(2))).CollectContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got res=%v err=%v", res, err)
	}
	if res != nil {
		t.Fatalf("canceled run must not return partial results")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not preserved: %v", err)
	}
}

// TestContextCancelMidStreamStreaming covers the chunked-ingest
// producer/worker cancellation.
func TestContextCancelMidStreamStreaming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	c := NewContext(WithExecutors(2), WithChunkSize(1<<12))
	_, err := bigDataSet(c).CollectContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("streaming: want ErrCanceled, got %v", err)
	}
}

// TestContextVariantsMatchPlain: with a background context the four
// *Context entry points are exactly their plain counterparts.
func TestContextVariantsMatchPlain(t *testing.T) {
	c := NewContext(WithExecutors(1))
	mk := func() *DataSet {
		return c.Parallelize([][]any{{int64(2)}, {int64(4)}, {int64(6)}}, []string{"a"}).
			Map(UDF("lambda a: a * 10"))
	}
	plain, err := mk().Collect()
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := mk().CollectContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, viaCtx.Rows) {
		t.Fatalf("collect diverged: %v vs %v", plain.Rows, viaCtx.Rows)
	}
	tk, err := mk().TakeContext(context.Background(), 2)
	if err != nil || len(tk.Rows) != 2 {
		t.Fatalf("take: %v / %v", tk, err)
	}
	v, _, err := mk().AggregateContext(context.Background(),
		UDF("lambda acc, row: acc + row"), UDF("lambda a, b: a + b"), int64(0))
	if err != nil || v != int64(120) {
		t.Fatalf("aggregate: %v / %v", v, err)
	}
}
