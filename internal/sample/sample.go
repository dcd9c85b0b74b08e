// Package sample implements Tuplex's data-driven normal-case detection
// (§4.2): it inspects a configurable sample of the input, histograms row
// structure and per-column cell types, and emits a CasePlan — the
// contract between the row classifier, the generated parser and the code
// generator.
//
// Per the paper: the most common column count becomes the normal row
// structure; per column, the most common type becomes the normal-case
// type; and null frequency is compared against the threshold δ — above δ
// the column is typed Null, below 1-δ nulls are exceptional, in between
// the column gets a polymorphic Option type.
package sample

import (
	"fmt"
	"strings"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/types"
)

// DefaultSize is the default number of sample rows, in the spirit of the
// paper's "sample of configurable size".
const DefaultSize = 1000

// DefaultDelta is the default null-frequency threshold δ.
const DefaultDelta = 0.9

// Config tunes sampling.
type Config struct {
	Size  int
	Delta float64
	// NullValues are the cell spellings meaning NULL.
	NullValues []string
	// DisableNullOpt forces every nullable column to a polymorphic
	// Option type instead of specializing on δ (§6.3.3 ablation: "shift
	// rare null values to the general-case path" off).
	DisableNullOpt bool
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Size <= 0 {
		c.Size = DefaultSize
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		c.Delta = DefaultDelta
	}
	if c.NullValues == nil {
		c.NullValues = csvio.DefaultNullValues
	}
	return c
}

// CellKind is a histogram bucket for one cell's apparent type.
type CellKind uint8

const (
	CellNull CellKind = iota
	CellBool
	CellI64
	CellF64
	CellStr
	cellKinds
)

// SniffCell classifies one raw CSV cell using the §4.2 heuristics:
// explicit null spellings are null; true/false and 0/1 are booleans;
// digit strings are ints; numeric strings containing a period (or
// exponent) are floats; everything else is a string. Quoted cells are
// always strings.
func SniffCell(cell string, quoted bool, nullValues []string) CellKind {
	if !quoted {
		for _, nv := range nullValues {
			if cell == nv {
				return CellNull
			}
		}
	}
	if quoted {
		return CellStr
	}
	if cell == "0" || cell == "1" || isBoolWord(cell) {
		return CellBool
	}
	if _, ok := csvio.ParseI64(cell); ok {
		return CellI64
	}
	if _, ok := csvio.ParseF64(cell); ok && containsAny(cell, ".eE") {
		return CellF64
	}
	return CellStr
}

func isBoolWord(s string) bool {
	switch s {
	case "true", "True", "TRUE", "false", "False", "FALSE":
		return true
	}
	return false
}

func containsAny(s, chars string) bool {
	for i := 0; i < len(s); i++ {
		for j := 0; j < len(chars); j++ {
			if s[i] == chars[j] {
				return true
			}
		}
	}
	return false
}

// ColumnStats accumulates the per-column histogram plus lightweight
// value statistics (constant cells, integer value range) that seed the
// dataflow lattice in internal/dataflow. The value statistics describe
// the sample only — consumers that specialize on them must guard at
// runtime (rows violating a sampled constraint take the general path).
type ColumnStats struct {
	Counts [cellKinds]int
	Total  int

	constVal    pyvalue.Value
	constBroken bool
	intLo       int64
	intHi       int64
	intSeen     bool
}

// Add records one cell observation by kind only (no value statistics;
// the cell counts as varying for constancy purposes).
func (cs *ColumnStats) Add(k CellKind) {
	cs.Counts[k]++
	cs.Total++
	if k != CellNull {
		cs.constVal, cs.constBroken = nil, true
	}
}

// AddValue records one cell observation together with its parsed value
// (nil for null cells), feeding the constancy and integer-range
// statistics.
func (cs *ColumnStats) AddValue(k CellKind, v pyvalue.Value) {
	cs.Counts[k]++
	cs.Total++
	if k == CellNull || v == nil {
		return
	}
	if !cs.constBroken {
		if cs.constVal == nil {
			cs.constVal = v
		} else if !sameScalar(cs.constVal, v) {
			cs.constVal, cs.constBroken = nil, true
		}
	}
	switch v := v.(type) {
	case pyvalue.Int:
		cs.widenIntRange(int64(v))
	case pyvalue.Bool:
		// 0/1 cells sniff as bool but materialize as I64 when the
		// column's normal-case type is integer; they must widen the
		// range or a seeded guard would wrongly exclude them.
		if v {
			cs.widenIntRange(1)
		} else {
			cs.widenIntRange(0)
		}
	}
}

func (cs *ColumnStats) widenIntRange(n int64) {
	if !cs.intSeen {
		cs.intLo, cs.intHi, cs.intSeen = n, n, true
		return
	}
	if n < cs.intLo {
		cs.intLo = n
	}
	if n > cs.intHi {
		cs.intHi = n
	}
}

// ConstValue reports the single value every non-null sampled cell held,
// if the column was constant across the sample (strict same-kind
// equality: Int(1) and Float(1.0) do not fold together, so the value's
// kind matches what the normal-case parser will materialize).
func (cs *ColumnStats) ConstValue() (pyvalue.Value, bool) {
	if cs.constBroken || cs.constVal == nil {
		return nil, false
	}
	return cs.constVal, true
}

// IntRange reports the [lo, hi] range of integer-valued sampled cells.
// ok is false when the column held no integer cells.
func (cs *ColumnStats) IntRange() (lo, hi int64, ok bool) {
	return cs.intLo, cs.intHi, cs.intSeen
}

// sameScalar is strict same-kind scalar equality (unlike pyvalue.Equal,
// which implements Python's cross-kind numeric ==). Non-scalar values
// never compare equal — constancy tracking only covers scalars.
func sameScalar(a, b pyvalue.Value) bool {
	switch a := a.(type) {
	case pyvalue.Bool:
		bb, ok := b.(pyvalue.Bool)
		return ok && a == bb
	case pyvalue.Int:
		bb, ok := b.(pyvalue.Int)
		return ok && a == bb
	case pyvalue.Float:
		bb, ok := b.(pyvalue.Float)
		return ok && a == bb
	case pyvalue.Str:
		bb, ok := b.(pyvalue.Str)
		return ok && a == bb
	}
	return false
}

// NullFraction reports the fraction of null cells.
func (cs *ColumnStats) NullFraction() float64 {
	if cs.Total == 0 {
		return 0
	}
	return float64(cs.Counts[CellNull]) / float64(cs.Total)
}

// normalType resolves the column's normal-case type under δ.
func (cs *ColumnStats) normalType(delta float64, disableNullOpt, foldSpellings bool) types.Type {
	base := cs.majorityNonNull(foldSpellings)
	nf := cs.NullFraction()
	if disableNullOpt {
		if cs.Counts[CellNull] > 0 {
			if !base.IsValid() {
				return types.Null
			}
			return types.Option(base)
		}
		if !base.IsValid() {
			return types.Str
		}
		return base
	}
	switch {
	case nf >= delta || !base.IsValid():
		// Nulls dominate: None is the normal case (§4.2 "Option types").
		return types.Null
	case nf <= 1-delta:
		// Nulls are exceptional: the fast path assumes non-null.
		return base
	default:
		return types.Option(base)
	}
}

// majorityNonNull picks the most common non-null kind (§4.2 "Tuplex then
// uses the most common type in the histogram as the normal-case type").
// Minority spellings become exception rows at parse time — except that
// bool cells conform to int columns and int cells to float columns by
// construction of the parsers, so those mixes cost nothing. Ties break
// toward the wider type.
func (cs *ColumnStats) majorityNonNull(foldSpellings bool) types.Type {
	nonNull := cs.Total - cs.Counts[CellNull]
	if nonNull == 0 {
		return types.Type{}
	}
	// For CSV cells, fold subset spellings upward before taking the
	// majority: 0/1 cells parse as ints, and int spellings parse as
	// floats, so a column with any genuine int cells treats bool-looking
	// cells as ints, and a column with any float cells treats int-looking
	// cells as floats. Typed-object inputs have no spelling ambiguity and
	// use the strict majority (§4.2).
	counts := cs.Counts
	if foldSpellings && counts[CellF64] > 0 {
		counts[CellF64] += counts[CellI64] + counts[CellBool]
		counts[CellI64], counts[CellBool] = 0, 0
	} else if foldSpellings && counts[CellI64] > 0 {
		counts[CellI64] += counts[CellBool]
		counts[CellBool] = 0
	}
	best, bestKind := 0, CellStr
	// Iterate wider-first so ties break wide.
	for _, k := range []CellKind{CellStr, CellF64, CellI64, CellBool} {
		if counts[k] > best {
			best, bestKind = counts[k], k
		}
	}
	switch bestKind {
	case CellBool:
		return types.Bool
	case CellI64:
		return types.I64
	case CellF64:
		return types.F64
	default:
		return types.Str
	}
}

// CasePlan is the sampled contract for one CSV input.
type CasePlan struct {
	// NumCols is the normal-case column count (most common structure).
	NumCols int
	// Schema is the normal-case schema (δ-specialized types).
	Schema *types.Schema
	// GeneralSchema is the schema a sample with the null optimization off
	// gives (§6.3.3): Option[T] where the sample saw nulls, else T, T being
	// the column's majority non-null type (Null for a column the sample
	// saw only nulls in). The general-case plan compiles at it.
	GeneralSchema *types.Schema
	// SampleRows is how many rows the plan was derived from.
	SampleRows int
	// AllExceptions is set when the sample itself produced no usable
	// normal case (§7: Tuplex warns the user to revise the pipeline or
	// enlarge the sample).
	AllExceptions bool
	// Stats holds the per-column histograms and value statistics the
	// plan was derived from, indexed like Schema. internal/dataflow
	// seeds its lattice from these.
	Stats []ColumnStats
	// Config echoes the effective configuration.
	Config Config
}

// Sample derives a CasePlan from raw CSV records. header supplies column
// names; if nil, columns are named _0.._n-1 like the paper's prototype.
func Sample(records [][]byte, delim byte, header []string, cfg Config) (*CasePlan, error) {
	cfg = cfg.WithDefaults()
	n := len(records)
	if n > cfg.Size {
		n = cfg.Size
	}
	if n == 0 {
		return nil, fmt.Errorf("sample: no input rows")
	}

	// Pass 1: row-structure histogram.
	structHist := map[int]int{}
	var cellsScratch []string
	for _, rec := range records[:n] {
		structHist[csvio.CountCells(rec, delim)]++
	}
	numCols, best := 0, 0
	for cols, count := range structHist {
		if count > best || (count == best && cols > numCols) {
			numCols, best = cols, count
		}
	}

	// Pass 2: per-column type histograms over structurally-conforming
	// rows.
	stats := make([]ColumnStats, numCols)
	conforming := 0
	for _, rec := range records[:n] {
		cells := csvio.SplitCells(rec, delim, cellsScratch)
		cellsScratch = cells
		if len(cells) != numCols {
			continue
		}
		conforming++
		for i, c := range cells {
			// Re-detect quoting cheaply: SplitCells already unquoted, so
			// sniff on the unquoted text (quoted numeric cells are rare
			// and widen to str only via the histogram).
			k := SniffCell(c, false, cfg.NullValues)
			stats[i].AddValue(k, cellValue(c, k))
		}
	}
	if conforming == 0 {
		return &CasePlan{NumCols: numCols, SampleRows: n, AllExceptions: true, Config: cfg}, nil
	}

	cols := make([]types.Column, numCols)
	gcols := make([]types.Column, numCols)
	for i := range stats {
		name := fmt.Sprintf("_%d", i)
		if header != nil && i < len(header) {
			name = header[i]
		}
		nt := stats[i].normalType(cfg.Delta, cfg.DisableNullOpt, true)
		cols[i] = types.Column{Name: name, Type: nt}
		gcols[i] = types.Column{Name: name, Type: stats[i].normalType(cfg.Delta, true, true)}
	}
	return &CasePlan{
		NumCols:       numCols,
		Schema:        types.NewSchema(cols),
		GeneralSchema: types.NewSchema(gcols),
		SampleRows:    n,
		Stats:         stats,
		Config:        cfg,
	}, nil
}

// cellValue parses one CSV cell into the boxed value the normal-case
// parser would materialize for the sniffed kind (nil for nulls).
func cellValue(cell string, k CellKind) pyvalue.Value {
	switch k {
	case CellNull:
		return nil
	case CellBool:
		switch cell {
		case "true", "True", "TRUE", "1":
			return pyvalue.Bool(true)
		}
		return pyvalue.Bool(false)
	case CellI64:
		n, _ := csvio.ParseI64(cell)
		return pyvalue.Int(n)
	case CellF64:
		f, _ := csvio.ParseF64(cell)
		return pyvalue.Float(f)
	default:
		// The cell string aliases the caller's record buffer; clone
		// before retaining it in the stats.
		return pyvalue.Str(strings.Clone(cell))
	}
}

// SampleValues derives a CasePlan from in-memory boxed rows (for
// Parallelize-style inputs).
func SampleValues(rowsIn [][]pyvalue.Value, names []string, cfg Config) (*CasePlan, error) {
	cfg = cfg.WithDefaults()
	n := len(rowsIn)
	if n > cfg.Size {
		n = cfg.Size
	}
	if n == 0 {
		return nil, fmt.Errorf("sample: no input rows")
	}
	structHist := map[int]int{}
	for _, r := range rowsIn[:n] {
		structHist[len(r)]++
	}
	numCols, best := 0, 0
	for cols, count := range structHist {
		if count > best || (count == best && cols > numCols) {
			numCols, best = cols, count
		}
	}
	stats := make([]ColumnStats, numCols)
	colTypes := make([][]types.Type, numCols)
	for _, r := range rowsIn[:n] {
		if len(r) != numCols {
			continue
		}
		for i, v := range r {
			switch v.(type) {
			case pyvalue.None:
				stats[i].AddValue(CellNull, nil)
			case pyvalue.Bool:
				stats[i].AddValue(CellBool, v)
			case pyvalue.Int:
				stats[i].AddValue(CellI64, v)
			case pyvalue.Float:
				stats[i].AddValue(CellF64, v)
			case pyvalue.Str:
				stats[i].AddValue(CellStr, v)
			default:
				stats[i].Add(CellStr)
				colTypes[i] = append(colTypes[i], typeOfValue(v))
			}
		}
	}
	cols := make([]types.Column, numCols)
	gcols := make([]types.Column, numCols)
	for i := range stats {
		name := fmt.Sprintf("_%d", i)
		if names != nil && i < len(names) {
			name = names[i]
		}
		nt := stats[i].normalType(cfg.Delta, cfg.DisableNullOpt, false)
		gt := stats[i].normalType(cfg.Delta, true, false)
		if len(colTypes[i]) > 0 {
			nt = types.UnifyAll(colTypes[i])
			gt = nt
		}
		cols[i] = types.Column{Name: name, Type: nt}
		gcols[i] = types.Column{Name: name, Type: gt}
	}
	return &CasePlan{
		NumCols:       numCols,
		Schema:        types.NewSchema(cols),
		GeneralSchema: types.NewSchema(gcols),
		SampleRows:    n,
		Stats:         stats,
		Config:        cfg,
	}, nil
}

func typeOfValue(v pyvalue.Value) types.Type {
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
			u = types.Unify(u, typeOfValue(it))
		}
		if !u.IsValid() {
			u = types.Any
		}
		return types.List(u)
	case *pyvalue.Tuple:
		elts := make([]types.Type, len(v.Items))
		for i, it := range v.Items {
			elts[i] = typeOfValue(it)
		}
		return types.Tuple(elts...)
	case *pyvalue.Dict:
		var u types.Type
		for _, k := range v.Keys() {
			val, _ := v.Get(k)
			u = types.Unify(u, typeOfValue(val))
		}
		if !u.IsValid() {
			u = types.Any
		}
		return types.Dict(u)
	default:
		return types.Any
	}
}
