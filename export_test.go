package tuplex

import "github.com/gotuplex/tuplex/internal/core"

// DecodeJob exposes the client's job-document decoder to the external
// test package.
var DecodeJob = decodeJob

// WithRowPlane(true) runs every stage on the row-at-a-time reference
// executor instead of the batch plane: the reference the columnar
// differentials compare against.
func WithRowPlane(on bool) Option {
	return Option{apply: func(o *core.Options) { o.RowPlane = on }}
}
