package plancheck

import (
	"fmt"

	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/types"
)

// udfResult is one UDF's static analysis under ⊤-seeded types: the
// parsed spec, and — when the function types cleanly against the
// abstract input schema — the inference and dataflow results.
type udfResult struct {
	spec   *logical.UDFSpec
	info   *inference.Info
	flow   *dataflow.Result
	scalar bool
}

// clean reports whether every fact the analysis derived is trustworthy:
// the function typed without failures and contains no constructs the
// analysis models as "could raise anything". Dead-resolver and
// return-type conclusions are only drawn from clean results.
func (u *udfResult) clean() bool {
	return u != nil && u.info != nil && len(u.info.Failed) == 0 &&
		u.flow != nil && !u.flow.MayRaise(pyvalue.ExcUnsupported)
}

// returnType is the UDF's proven return type, or ⊤ when unproven.
func returnType(u *udfResult) types.Type {
	if u.clean() {
		return u.info.ReturnType
	}
	return types.Any
}

// requireUDF parses and analyzes an operator's UDF against its input
// row schema, emitting TPX010 when the UDF is missing or unparsable.
func (c *checker) requireUDF(op *spec.Op, in absSchema, path string) *udfResult {
	if op.UDF == nil {
		c.addf(CodeMalformedSpec, SevError, path, op.Kind, "", "%s needs a udf", op.Kind)
		return nil
	}
	u := c.parseUDF(op.UDF, path, op.Kind)
	if u == nil {
		return nil
	}
	c.analyze(u, in, path, op.Kind)
	return u
}

// parseUDF parses UDF source + globals, or takes the build's parse of
// u when there is one; parse failures are TPX010 errors (Build would
// reject the spec identically).
func (c *checker) parseUDF(u *spec.UDF, path, kind string) *udfResult {
	if s := c.parsed[u]; s != nil {
		return &udfResult{spec: s}
	}
	var globals map[string]pyvalue.Value
	if len(u.Globals) > 0 {
		globals = make(map[string]pyvalue.Value, len(u.Globals))
		for k, v := range u.Globals {
			globals[k] = spec.BoxValue(v)
		}
	}
	s, err := logical.ParseUDF(u.Code, globals)
	if err != nil {
		c.addf(CodeMalformedSpec, SevError, path, kind, "", "unparsable UDF: %v", err)
		return nil
	}
	return &udfResult{spec: s}
}

// analyze types the UDF against the abstract input schema and runs the
// dataflow analysis with type-only (⊤-seeded) column facts — the same
// transfer functions the engine seeds from sample statistics, minus the
// sample. Provable always-raising expressions surface as TPX003.
func (c *checker) analyze(u *udfResult, in absSchema, path, kind string) {
	if in.open || in.sch == nil {
		return // unknown inputs: no facts worth deriving
	}
	scalar, paramT := rowParamStyle(u.spec.Access, in.sch)
	u.scalar = scalar
	var colFacts []dataflow.ColFact
	if scalar {
		colFacts = []dataflow.ColFact{{Type: in.sch.Col(0).Type}}
	} else {
		colFacts = make([]dataflow.ColFact, in.sch.Len())
		for i := range colFacts {
			colFacts[i] = dataflow.ColFact{Type: in.sch.Col(i).Type}
		}
	}
	c.analyzeTyped(u, []types.Type{paramT}, colFacts, path, kind)
}

// analyzeScalarUDF analyzes a mapColumn UDF, which always receives the
// named column's bare value.
func (c *checker) analyzeScalarUDF(su *spec.UDF, colT types.Type, path, kind string) *udfResult {
	u := c.parseUDF(su, path, kind)
	if u == nil {
		return nil
	}
	u.scalar = true
	c.analyzeTyped(u, []types.Type{colT}, []dataflow.ColFact{{Type: colT}}, path, kind)
	return u
}

// analyzeTyped runs inference + dataflow with explicit parameter types
// and column facts, surfacing provable raise sites.
func (c *checker) analyzeTyped(u *udfResult, paramTypes []types.Type, colFacts []dataflow.ColFact, path, kind string) {
	globalTypes := map[string]types.Type{}
	for k, v := range u.spec.Globals {
		globalTypes[k] = typeOfBoxed(v)
	}
	info, err := inference.TypeFunction(u.spec.Fn, paramTypes, globalTypes, inference.Options{})
	if err != nil {
		return // structural mismatch (wrong arity): boxed-only at run time
	}
	u.info = info
	u.flow = dataflow.Analyze(info, dataflow.Options{
		Columns:   colFacts,
		NullFacts: true,
		Globals:   u.spec.Globals,
	})
	c.reportRaises(u, path, kind)
}

// reportRaises surfaces the dataflow's always-raises proofs as TPX003.
// Only the dataflow's own dep-free constant proofs (e.g. a literal 1//0)
// are sound under ⊤ seeding; the inference layer also marks failed
// nodes as raising, but under ⊤ a node like `x.find(...)` on an
// Any-typed value "raises" only for the types the sample would have
// ruled out — reporting those would flag every paper pipeline. Failed
// nodes are identified by position and skipped.
func (c *checker) reportRaises(u *udfResult, path, kind string) {
	failedPos := map[string]bool{}
	for n := range u.info.Failed {
		failedPos[n.Pos().String()] = true
	}
	for _, l := range u.flow.Lints() {
		if l.Code != "always-raises" || failedPos[l.Pos.String()] {
			continue
		}
		c.addf(CodeAlwaysRaises, SevWarning, path, kind, l.Pos.String(),
			"UDF provably raises on every row: %s", l.Msg)
	}
}

// rowParamStyle mirrors the engine's paramStyle: a single-column schema
// whose UDF does not address that column by name passes the bare cell
// value; everything else passes the row.
func rowParamStyle(acc *pyast.ColumnAccess, sch *types.Schema) (scalar bool, paramT types.Type) {
	if sch.Len() == 1 {
		if acc != nil && len(acc.ByName) > 0 {
			if _, ok := sch.Lookup(acc.ByName[0]); ok {
				return false, types.Row(sch)
			}
		}
		return true, sch.Col(0).Type
	}
	return false, types.Row(sch)
}

// checkRowAccess verifies every column the UDF addresses exists in its
// input schema (TPX001). Scalar-parameter UDFs are skipped: their
// subscripts address the cell value, not columns.
func (c *checker) checkRowAccess(u *udfResult, in absSchema, path, kind string) {
	if u == nil || u.spec == nil || u.spec.Access == nil || in.open || in.sch == nil {
		return
	}
	acc := u.spec.Access
	if scalar, _ := rowParamStyle(acc, in.sch); scalar {
		return
	}
	for _, name := range acc.ByName {
		if _, ok := in.sch.Lookup(name); !ok {
			c.addf(CodeUndefinedColumn, SevError, path, kind, "",
				"UDF references column %q, which does not exist in %s", name, in.sch)
		}
	}
	for _, idx := range acc.ByIndex {
		if idx < 0 || idx >= in.sch.Len() {
			c.addf(CodeUndefinedColumn, SevError, path, kind, "",
				"UDF references column index %d, out of range for the %d-column schema %s",
				idx, in.sch.Len(), in.sch)
		}
	}
}

// checkConstantFilter flags filters whose every return value is a
// proven constant of one truthiness: constantly true keeps every row (a
// no-op), constantly false drops all of them. Only clean analyses are
// trusted — a failed or raising path could change the outcome.
func (c *checker) checkConstantFilter(u *udfResult, path string) {
	if !u.clean() {
		return
	}
	var rets []*pyast.Return
	pyast.InspectStmts(u.info.Fn.Body, func(n pyast.Node) bool {
		if r, ok := n.(*pyast.Return); ok && r.X != nil {
			rets = append(rets, r)
		}
		return true
	})
	if len(rets) == 0 {
		return
	}
	truth, any := false, false
	for _, r := range rets {
		t, ok := u.flow.ConstantTruth(r.X)
		if !ok {
			return
		}
		if any && t != truth {
			return // mixed constant outcomes: path-dependent, not constant
		}
		truth, any = t, true
	}
	if truth {
		c.addf(CodeConstantFilter, SevWarning, path, "filter", "",
			"filter condition is constantly true; the filter keeps every row and is a no-op")
	} else {
		c.addf(CodeConstantFilter, SevWarning, path, "filter", "",
			"filter condition is constantly false; the filter drops every row")
	}
}

// checkAggregate analyzes an aggregate fold (operator or sink): the agg
// UDF types as (acc, row) and the combiner as (acc, acc), both seeded
// from the literal initial value — exact, since it is spec text.
func (c *checker) checkAggregate(agg, comb *spec.UDF, initial any, in absSchema, path, kind string) {
	accT := typeOfValue(initial)
	ua := c.parseUDF(agg, path, kind)
	uc := c.parseUDF(comb, path, kind)
	if ua != nil && !in.open && in.sch != nil {
		rowT := types.Row(in.sch)
		if in.sch.Len() == 1 && (ua.spec.Access == nil || len(ua.spec.Access.ByName) == 0) {
			rowT = in.sch.Col(0).Type
		}
		c.analyzeTyped(ua, []types.Type{accT, rowT}, nil, path, kind)
	}
	if uc != nil {
		c.analyzeTyped(uc, []types.Type{accT, accT}, nil, path, kind)
	}
}

// udfReads summarizes a UDF's column reads for the liveness pass.
// readsAll is the conservative answer for whole-row, positional or
// unanalyzable access.
func udfReads(u *udfResult, in absSchema) (reads []string, readsAll bool) {
	if u == nil || u.spec == nil || u.spec.Access == nil {
		return nil, true
	}
	acc := u.spec.Access
	if acc.WholeRow || len(acc.ByIndex) > 0 {
		return nil, true
	}
	if !in.open && in.sch != nil {
		if scalar, _ := rowParamStyle(acc, in.sch); scalar {
			return []string{in.sch.Col(0).Name}, false
		}
	}
	return acc.ByName, false
}

// typeOfBoxed types a boxed Python value in the lattice (globals,
// aggregate initial values).
func typeOfBoxed(v pyvalue.Value) types.Type {
	switch v := v.(type) {
	case pyvalue.None:
		return types.Null
	case pyvalue.Bool:
		return types.Bool
	case pyvalue.Int:
		return types.I64
	case pyvalue.Float:
		return types.F64
	case pyvalue.Str:
		return types.Str
	case *pyvalue.List:
		var u types.Type
		for _, it := range v.Items {
			u = types.Unify(u, typeOfBoxed(it))
		}
		if !u.IsValid() {
			u = types.Any
		}
		return types.List(u)
	case *pyvalue.Tuple:
		elts := make([]types.Type, len(v.Items))
		for i, it := range v.Items {
			elts[i] = typeOfBoxed(it)
		}
		return types.Tuple(elts...)
	default:
		return types.Any
	}
}

// mapOutputSchema derives the schema a map produces, mirroring the
// engine: Row-typed returns carry their own schema, tuples become
// positional columns, and anything else is a single column named by the
// dict-literal output or "value". Unproven returns yield an open
// schema — downstream checks are suppressed rather than guessed.
func (c *checker) mapOutputSchema(u *udfResult, in absSchema) absSchema {
	if !u.clean() {
		return absSchema{open: true}
	}
	rt := u.info.ReturnType
	switch rt.Kind() {
	case types.KindRow:
		return closedSchema(rt.Schema())
	case types.KindTuple:
		elts := rt.Elts()
		cols := make([]types.Column, len(elts))
		for i, t := range elts {
			cols[i] = types.Column{Name: fmt.Sprintf("_%d", i), Type: t}
		}
		return closedSchema(types.NewSchema(cols))
	default:
		name := "value"
		if u.spec.Access != nil && len(u.spec.Access.OutputColumns) == 1 {
			name = u.spec.Access.OutputColumns[0]
		}
		return closedSchema(types.NewSchema([]types.Column{{Name: name, Type: rt}}))
	}
}
