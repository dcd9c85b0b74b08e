package tuplex

import "github.com/gotuplex/tuplex/internal/core"

// DecodeJob exposes the client's job-document decoder to the external
// test package.
var DecodeJob = decodeJob

// WithFallbackOnly(true) sends every row of every stage to the
// tree-walking fallback, with the values its normal path read: the
// interpreter's answer, the reference the differentials hold the
// compiled paths to.
func WithFallbackOnly(on bool) Option {
	return Option{apply: func(o *core.Options) { o.FallbackOnly = on }}
}
