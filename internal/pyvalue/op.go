package pyvalue

import "fmt"

// Op is a Python operator. The parser stores one in every operator node,
// and every tier — the tree-walker, the boxed closures of the general
// path, the row closures, the vector programs, type inference and the
// dataflow folds — dispatches on it and asks its methods, not a
// spelling, what the operator is. Binary, Unary and Compare are the one
// boxed implementation all of them share.
type Op uint8

const (
	OpNone Op = iota

	// Binary operators. Unary minus and plus are OpSub and OpAdd.
	OpAdd      // +
	OpSub      // -
	OpMul      // *
	OpDiv      // /
	OpFloorDiv // //
	OpMod      // %
	OpPow      // **
	OpBitAnd   // &
	OpBitOr    // |
	OpBitXor   // ^
	OpLShift   // <<
	OpRShift   // >>

	// Unary operators, with OpSub and OpAdd.
	OpInvert // ~
	OpNot    // not

	// Comparisons.
	OpEq    // ==
	OpNe    // !=
	OpLt    // <
	OpLe    // <=
	OpGt    // >
	OpGe    // >=
	OpIn    // in
	OpNotIn // not in
	OpIs    // is
	OpIsNot // is not

	// The short-circuit operators. Every evaluator runs them as control
	// flow, so none of Binary, Unary and Compare takes them.
	OpAnd // and
	OpOr  // or

	NumOps
)

var opText = [NumOps]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpFloorDiv: "//", OpMod: "%", OpPow: "**",
	OpBitAnd: "&", OpBitOr: "|", OpBitXor: "^", OpLShift: "<<", OpRShift: ">>",
	OpInvert: "~", OpNot: "not",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpIn: "in", OpNotIn: "not in", OpIs: "is", OpIsNot: "is not",
	OpAnd: "and", OpOr: "or",
}

// String is the operator's Python spelling.
func (o Op) String() string {
	if o == OpNone || o >= NumOps {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return opText[o]
}

// IsBinary reports the operators Binary applies.
func (o Op) IsBinary() bool { return o >= OpAdd && o <= OpRShift }

// IsUnary reports the operators Unary applies.
func (o Op) IsUnary() bool { return o == OpSub || o == OpAdd || o == OpInvert || o == OpNot }

// IsCompare reports the operators Compare applies.
func (o Op) IsCompare() bool { return o >= OpEq && o <= OpIsNot }

// IsOrder reports < <= > >=.
func (o Op) IsOrder() bool { return o >= OpLt && o <= OpGe }

// Divides reports / // %, which raise ZeroDivisionError on a zero
// divisor.
func (o Op) Divides() bool { return o == OpDiv || o == OpFloorDiv || o == OpMod }

// IntOnly reports the bitwise operators & | ^ << >>, defined on ints and
// bools only.
func (o Op) IntOnly() bool { return o >= OpBitAnd && o <= OpRShift }

// Mirror returns the comparison m with (a o b) == (b m a), or OpNone for
// the membership tests, which have none.
func (o Op) Mirror() Op { return mirror[o] }

// Negate returns the comparison n with (a n b) == not (a o b). For an
// ordering this holds only between operands that order totally: NaN
// orders false both ways.
func (o Op) Negate() Op { return negate[o] }

var mirror = [NumOps]Op{
	OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe,
	OpEq: OpEq, OpNe: OpNe, OpIs: OpIs, OpIsNot: OpIsNot,
}

var negate = [NumOps]Op{
	OpLt: OpGe, OpLe: OpGt, OpGt: OpLe, OpGe: OpLt,
	OpEq: OpNe, OpNe: OpEq, OpIn: OpNotIn, OpNotIn: OpIn, OpIs: OpIsNot, OpIsNot: OpIs,
}

var binary = [NumOps]func(a, b Value) (Value, error){
	OpAdd: Add, OpSub: Sub, OpMul: Mul, OpDiv: TrueDiv, OpFloorDiv: FloorDiv, OpMod: Mod, OpPow: Pow,
	OpBitAnd: BitAnd, OpBitOr: BitOr, OpBitXor: BitXor, OpLShift: LShift, OpRShift: RShift,
}

// Binary applies the binary operator op to a and b.
func Binary(op Op, a, b Value) (Value, error) {
	if op.IsBinary() {
		return binary[op](a, b)
	}
	return nil, Raise(ExcUnsupported, "binary operator %s", op)
}

// Unary applies the unary operator op to v.
func Unary(op Op, v Value) (Value, error) {
	switch op {
	case OpSub:
		return Neg(v)
	case OpAdd:
		return Pos(v)
	case OpInvert:
		return Invert(v)
	case OpNot:
		return Not(v), nil
	}
	return nil, Raise(ExcUnsupported, "unary operator %s", op)
}
