// Package value implements the typed datums that flow through the
// PackageBuilder engine: SQL values inside the minidb substrate, PaQL
// constants, aggregate results, and index keys. A datum is a small
// immutable value with SQL-style NULL semantics: comparisons and
// arithmetic involving NULL produce NULL, and predicates treat NULL as
// "unknown" (which filters discard).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a V can hold.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// V is a single typed datum. The zero value is NULL.
type V struct {
	k Kind
	b bool
	i int64
	f float64
	s string
}

// Null returns the NULL datum.
func Null() V { return V{} }

// Bool returns a boolean datum.
func Bool(b bool) V { return V{k: KindBool, b: b} }

// Int returns an integer datum.
func Int(i int64) V { return V{k: KindInt, i: i} }

// Float returns a float datum.
func Float(f float64) V { return V{k: KindFloat, f: f} }

// Str returns a string datum.
func Str(s string) V { return V{k: KindString, s: s} }

// Kind reports the datum's runtime type.
func (v V) Kind() Kind { return v.k }

// IsNull reports whether the datum is NULL.
func (v V) IsNull() bool { return v.k == KindNull }

// IsNumeric reports whether the datum is an integer or a float.
func (v V) IsNumeric() bool { return v.k == KindInt || v.k == KindFloat }

// BoolVal returns the boolean payload. It is only meaningful when
// Kind() == KindBool.
func (v V) BoolVal() bool { return v.b }

// IntVal returns the integer payload. It is only meaningful when
// Kind() == KindInt.
func (v V) IntVal() int64 { return v.i }

// FloatVal returns the float payload. It is only meaningful when
// Kind() == KindFloat.
func (v V) FloatVal() float64 { return v.f }

// StrVal returns the string payload. It is only meaningful when
// Kind() == KindString.
func (v V) StrVal() string { return v.s }

// AsFloat coerces a numeric datum to float64. ok is false for
// non-numeric datums (including NULL).
func (v V) AsFloat() (f float64, ok bool) {
	switch v.k {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

// AsInt coerces a numeric datum to int64 (floats truncate toward zero).
// ok is false for non-numeric datums.
func (v V) AsInt() (i int64, ok bool) {
	switch v.k {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	}
	return 0, false
}

// Truthy interprets the datum as a three-valued SQL boolean:
// (true, false) for TRUE, (false, false) for FALSE, (_, true) for
// NULL/unknown. Non-boolean, non-null datums are never truthy.
func (v V) Truthy() (val bool, null bool) {
	switch v.k {
	case KindNull:
		return false, true
	case KindBool:
		return v.b, false
	}
	return false, false
}

// Compare orders two datums. It returns cmp < 0, == 0, > 0 when v is
// respectively less than, equal to, or greater than o. null is true when
// either operand is NULL (SQL unknown); cmp is then meaningless.
// Cross-type numeric comparison (int vs float) is supported; any other
// cross-type comparison orders by kind so sorting stays total.
func (v V) Compare(o V) (cmp int, null bool) {
	if v.k == KindNull || o.k == KindNull {
		return 0, true
	}
	if v.IsNumeric() && o.IsNumeric() {
		if v.k == KindInt && o.k == KindInt {
			return Order(v.i, o.i), false
		}
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return Order(a, b), false
	}
	if v.k != o.k {
		return Order(v.k, o.k), false
	}
	switch v.k {
	case KindBool:
		switch {
		case v.b == o.b:
			return 0, false
		case !v.b:
			return -1, false
		default:
			return 1, false
		}
	case KindString:
		return strings.Compare(v.s, o.s), false
	}
	return 0, false
}

// Order is Compare's ordering of two numbers (or kinds): -1, 0 or 1,
// with a NaN equal to anything.
func Order[T int64 | float64 | Kind](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// SortLess is a total order for sorting: NULLs first, then by Compare.
func (v V) SortLess(o V) bool {
	if v.k == KindString && o.k == KindString {
		return v.s < o.s // what Compare finds, without the detour
	}
	if v.k == KindNull {
		return o.k != KindNull
	}
	if o.k == KindNull {
		return false
	}
	c, _ := v.Compare(o)
	return c < 0
}

// Equal reports strict equality under Compare (NULL is never equal to
// anything, including NULL).
func (v V) Equal(o V) bool {
	c, null := v.Compare(o)
	return !null && c == 0
}

// Identical reports whether the two datums are the same datum — same
// kind, same payload bit for bit: the distinction EncodeKey draws.
// Unlike Equal it holds between two NULLs, tells +0.0 from -0.0, and
// never equates an integer with a float or a string with anything it
// merely prints like.
func (v V) Identical(o V) bool {
	if v.k != o.k {
		return false
	}
	switch v.k {
	case KindBool:
		return v.b == o.b
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return math.Float64bits(v.f) == math.Float64bits(o.f)
	case KindString:
		return v.s == o.s
	}
	return true
}

// arithmetic ------------------------------------------------------------

// Add returns v + o with numeric promotion; NULL propagates.
func (v V) Add(o V) (V, error) { return numericOp(v, o, "+") }

// Sub returns v - o with numeric promotion; NULL propagates.
func (v V) Sub(o V) (V, error) { return numericOp(v, o, "-") }

// Mul returns v * o with numeric promotion; NULL propagates.
func (v V) Mul(o V) (V, error) { return numericOp(v, o, "*") }

// Div returns v / o. Division always produces a float so that PaQL
// constraint arithmetic (e.g. SUM(a)/COUNT(*)) behaves as users expect.
// Division by zero yields NULL, matching SQL engines that return NULL
// rather than erroring at runtime.
func (v V) Div(o V) (V, error) { return numericOp(v, o, "/") }

// Mod returns v % o over integers; NULL propagates; x % 0 is NULL.
func (v V) Mod(o V) (V, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	if v.k != KindInt || o.k != KindInt {
		return Null(), fmt.Errorf("value: %% requires integer operands, got %s %% %s", v.k, o.k)
	}
	a, b := v.i, o.i
	if b == 0 {
		return Null(), nil
	}
	return Int(a % b), nil
}

// Neg returns -v; NULL propagates.
func (v V) Neg() (V, error) {
	switch v.k {
	case KindNull:
		return Null(), nil
	case KindInt:
		return Int(-v.i), nil
	case KindFloat:
		return Float(-v.f), nil
	}
	return Null(), fmt.Errorf("value: cannot negate %s", v.k)
}

func numericOp(a, b V, op string) (V, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "+" && a.k == KindString && b.k == KindString {
		return Str(a.s + b.s), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("value: %s requires numeric operands, got %s %s %s", op, a.k, op, b.k)
	}
	if a.k == KindInt && b.k == KindInt && op != "/" {
		switch op {
		case "+":
			return Int(a.i + b.i), nil
		case "-":
			return Int(a.i - b.i), nil
		case "*":
			return Int(a.i * b.i), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case "+":
		return Float(x + y), nil
	case "-":
		return Float(x - y), nil
	case "*":
		return Float(x * y), nil
	case "/":
		if y == 0 {
			return Null(), nil
		}
		return Float(x / y), nil
	}
	return Null(), fmt.Errorf("value: unknown operator %q", op)
}

// rendering & parsing ----------------------------------------------------

// String renders the datum the way the CLI and tests display it.
func (v V) String() string {
	switch v.k {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	}
	return "?"
}

// SQLString renders the datum as a SQL literal (strings quoted).
func (v V) SQLString() string {
	if v.k == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Parse infers a datum from text: integer, then float, then boolean
// literals true/false, then the empty string as NULL, otherwise a string.
// It is used by the CSV loader when no explicit column type is declared.
func Parse(s string) V {
	if s == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsInf(f, 0) {
		return Float(f)
	}
	switch strings.ToLower(s) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	case "null":
		return Null()
	}
	return Str(s)
}

// ParseAs parses text as a specific kind, returning an error when the
// text does not conform. Empty text is NULL for every kind.
func ParseAs(s string, k Kind) (V, error) {
	if s == "" {
		return Null(), nil
	}
	switch k {
	case KindNull:
		return Null(), nil
	case KindBool:
		switch strings.ToLower(s) {
		case "true", "t", "1":
			return Bool(true), nil
		case "false", "f", "0":
			return Bool(false), nil
		}
		return Null(), fmt.Errorf("value: %q is not a boolean", s)
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("value: %q is not an integer", s)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null(), fmt.Errorf("value: %q is not a float", s)
		}
		return Float(f), nil
	case KindString:
		return Str(s), nil
	}
	return Null(), fmt.Errorf("value: unknown kind %d", k)
}

// keys & hashing ----------------------------------------------------------

// EncodeKey appends a self-delimiting byte encoding of the datum to dst.
// Encodings of distinct datums are distinct, which makes them usable as
// grouping and index keys. The encoding does not preserve order.
func (v V) EncodeKey(dst []byte) []byte {
	dst = append(dst, byte(v.k))
	switch v.k {
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = appendUint64(dst, uint64(v.i))
	case KindFloat:
		dst = appendUint64(dst, math.Float64bits(v.f))
	case KindString:
		dst = appendUint64(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// DecodeKey decodes one datum from the front of src (the inverse of
// EncodeKey) and returns it together with the remaining bytes. It
// validates as it reads, so truncated or corrupted input yields an
// error rather than a junk datum — the partition-tree persistence layer
// relies on this when reading untrusted files.
func DecodeKey(src []byte) (V, []byte, error) {
	if len(src) == 0 {
		return Null(), nil, fmt.Errorf("value: empty key encoding")
	}
	k, rest := Kind(src[0]), src[1:]
	switch k {
	case KindNull:
		return Null(), rest, nil
	case KindBool:
		if len(rest) < 1 {
			return Null(), nil, fmt.Errorf("value: truncated boolean key")
		}
		if rest[0] > 1 {
			return Null(), nil, fmt.Errorf("value: boolean key byte %d is neither 0 nor 1", rest[0])
		}
		return Bool(rest[0] == 1), rest[1:], nil
	case KindInt:
		u, rest, err := takeUint64(rest, "integer")
		if err != nil {
			return Null(), nil, err
		}
		return Int(int64(u)), rest, nil
	case KindFloat:
		u, rest, err := takeUint64(rest, "float")
		if err != nil {
			return Null(), nil, err
		}
		return Float(math.Float64frombits(u)), rest, nil
	case KindString:
		n, rest, err := takeUint64(rest, "string length")
		if err != nil {
			return Null(), nil, err
		}
		if n > uint64(len(rest)) {
			return Null(), nil, fmt.Errorf("value: truncated string key (%d bytes declared, %d left)", n, len(rest))
		}
		return Str(string(rest[:n])), rest[n:], nil
	}
	return Null(), nil, fmt.Errorf("value: unknown key kind %d", uint8(k))
}

func takeUint64(src []byte, what string) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("value: truncated %s key", what)
	}
	u := uint64(src[0])<<56 | uint64(src[1])<<48 | uint64(src[2])<<40 | uint64(src[3])<<32 |
		uint64(src[4])<<24 | uint64(src[5])<<16 | uint64(src[6])<<8 | uint64(src[7])
	return u, src[8:], nil
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// Hash returns the 64-bit FNV-1a hash of the datum's key encoding (the
// bytes EncodeKey appends), computed as straight-line arithmetic: no
// hash object, no buffer, no allocation — the sketch fingerprint calls
// it once per candidate cell. Numeric datums that compare equal across
// kinds (Int(2) vs Float(2)) hash equal, so a fingerprint does not
// depend on which kind a column's value was written as: exact integers
// are canonicalized to the float encoding first.
func (v V) Hash() uint64 {
	switch v.k {
	case KindBool:
		h := fnvByte(fnvOffset64, byte(KindBool))
		if v.b {
			return fnvByte(h, 1)
		}
		return fnvByte(h, 0)
	case KindInt:
		return fnvUint64(fnvByte(fnvOffset64, byte(KindFloat)), math.Float64bits(float64(v.i)))
	case KindFloat:
		return fnvUint64(fnvByte(fnvOffset64, byte(KindFloat)), math.Float64bits(v.f))
	case KindString:
		h := fnvUint64(fnvByte(fnvOffset64, byte(KindString)), uint64(len(v.s)))
		for i := 0; i < len(v.s); i++ {
			h = fnvByte(h, v.s[i])
		}
		return h
	}
	return fnvByte(fnvOffset64, byte(v.k))
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvUint64 folds u in big-endian byte order, matching appendUint64.
func fnvUint64(h, u uint64) uint64 {
	for s := 56; s >= 0; s -= 8 {
		h = fnvByte(h, byte(u>>uint(s)))
	}
	return h
}
