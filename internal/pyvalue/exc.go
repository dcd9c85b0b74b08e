package pyvalue

import "fmt"

// ExcKind enumerates the Python exception classes the runtime raises,
// plus internal codes used by the engine's return-code exception flow
// (§5: "Tuplex implements exception control flow ... via special return
// codes").
type ExcKind uint8

const (
	// ExcOK is the zero value: no exception.
	ExcOK ExcKind = iota
	// ExcTypeError is Python TypeError.
	ExcTypeError
	// ExcValueError is Python ValueError.
	ExcValueError
	// ExcZeroDivisionError is Python ZeroDivisionError.
	ExcZeroDivisionError
	// ExcIndexError is Python IndexError.
	ExcIndexError
	// ExcKeyError is Python KeyError.
	ExcKeyError
	// ExcAttributeError is Python AttributeError.
	ExcAttributeError
	// ExcOverflowError is Python OverflowError (also raised where this
	// implementation's 64-bit ints diverge from Python's big ints).
	ExcOverflowError
	// ExcNameError is Python NameError (unbound local or unknown global).
	ExcNameError
	// ExcStopIteration signals iterator exhaustion (internal).
	ExcStopIteration

	// ExcBadParse is internal: the row classifier rejected a row (wrong
	// column count or a cell failed to parse as the normal-case type).
	ExcBadParse
	// ExcUnsupported is internal: the construct is outside the compiled
	// subset and the row must be retried on a more general path.
	ExcUnsupported
)

// String returns the Python class name (or internal tag).
func (k ExcKind) String() string {
	switch k {
	case ExcOK:
		return "OK"
	case ExcTypeError:
		return "TypeError"
	case ExcValueError:
		return "ValueError"
	case ExcZeroDivisionError:
		return "ZeroDivisionError"
	case ExcIndexError:
		return "IndexError"
	case ExcKeyError:
		return "KeyError"
	case ExcAttributeError:
		return "AttributeError"
	case ExcOverflowError:
		return "OverflowError"
	case ExcNameError:
		return "NameError"
	case ExcStopIteration:
		return "StopIteration"
	case ExcBadParse:
		return "BadParse"
	case ExcUnsupported:
		return "Unsupported"
	default:
		return fmt.Sprintf("ExcKind(%d)", uint8(k))
	}
}

// ExcNamed is the kind of the Python exception class name, or
// ExcUnsupported for a name no kind spells ("" included).
func ExcNamed(name string) ExcKind {
	for k := ExcTypeError; k <= ExcNameError; k++ {
		if k.String() == name {
			return k
		}
	}
	return ExcUnsupported
}

// Exc is a raised Python exception. It implements error; the engine
// propagates it as a return code rather than a Go panic.
type Exc struct {
	ExcKind ExcKind
	Msg     string
}

func (e *Exc) Error() string {
	if e.Msg == "" {
		return e.ExcKind.String()
	}
	return e.ExcKind.String() + ": " + e.Msg
}

// Raise constructs an exception.
func Raise(kind ExcKind, format string, args ...any) *Exc {
	if len(args) == 0 {
		return &Exc{ExcKind: kind, Msg: format}
	}
	return &Exc{ExcKind: kind, Msg: fmt.Sprintf(format, args...)}
}

// KindOf extracts the exception kind from an error (ExcOK for nil or
// non-Exc errors are reported as ExcUnsupported to stay on the safe,
// general path).
func KindOf(err error) ExcKind {
	if err == nil {
		return ExcOK
	}
	if e, ok := err.(*Exc); ok {
		return e.ExcKind
	}
	return ExcUnsupported
}
