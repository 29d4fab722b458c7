package value

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "TEXT",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v V
	if !v.IsNull() {
		t.Fatal("zero V should be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero V kind = %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Bool(true); !got.BoolVal() || got.Kind() != KindBool {
		t.Errorf("Bool(true) = %v", got)
	}
	if got := Int(-7); got.IntVal() != -7 || got.Kind() != KindInt {
		t.Errorf("Int(-7) = %v", got)
	}
	if got := Float(2.5); got.FloatVal() != 2.5 || got.Kind() != KindFloat {
		t.Errorf("Float(2.5) = %v", got)
	}
	if got := Str("abc"); got.StrVal() != "abc" || got.Kind() != KindString {
		t.Errorf("Str(abc) = %v", got)
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Errorf("Int(3).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Float(3.5).AsFloat(); !ok || f != 3.5 {
		t.Errorf("Float(3.5).AsFloat() = %v, %v", f, ok)
	}
	if _, ok := Str("x").AsFloat(); ok {
		t.Error("Str.AsFloat should fail")
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("Null.AsFloat should fail")
	}
	if i, ok := Float(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("Float(3.9).AsInt() = %v, %v (want truncation)", i, ok)
	}
	if _, ok := Bool(true).AsInt(); ok {
		t.Error("Bool.AsInt should fail")
	}
}

func TestTruthy(t *testing.T) {
	if v, null := Bool(true).Truthy(); !v || null {
		t.Error("Bool(true) should be truthy")
	}
	if v, null := Bool(false).Truthy(); v || null {
		t.Error("Bool(false) should be falsy, known")
	}
	if _, null := Null().Truthy(); !null {
		t.Error("Null should be unknown")
	}
	if v, null := Int(1).Truthy(); v || null {
		t.Error("Int is not truthy (strict boolean semantics)")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b V
		cmp  int
		null bool
	}{
		{Int(1), Int(2), -1, false},
		{Int(2), Int(2), 0, false},
		{Int(3), Int(2), 1, false},
		{Int(2), Float(2.0), 0, false},
		{Float(1.5), Int(2), -1, false},
		{Str("a"), Str("b"), -1, false},
		{Str("b"), Str("b"), 0, false},
		{Bool(false), Bool(true), -1, false},
		{Bool(true), Bool(true), 0, false},
		{Null(), Int(1), 0, true},
		{Int(1), Null(), 0, true},
		{Null(), Null(), 0, true},
	}
	for _, tc := range tests {
		cmp, null := tc.a.Compare(tc.b)
		if null != tc.null || (!null && sign(cmp) != tc.cmp) {
			t.Errorf("Compare(%v,%v) = %d,%v want %d,%v", tc.a, tc.b, cmp, null, tc.cmp, tc.null)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCrossTypeCompareIsTotal(t *testing.T) {
	// Strings vs numbers order by kind, so sorting mixed columns is stable.
	c, null := Int(5).Compare(Str("abc"))
	if null {
		t.Fatal("cross-type compare should not be null")
	}
	c2, _ := Str("abc").Compare(Int(5))
	if sign(c) == sign(c2) {
		t.Error("cross-type compare should be antisymmetric")
	}
}

func TestSortLess(t *testing.T) {
	if !Null().SortLess(Int(0)) {
		t.Error("NULL sorts first")
	}
	if Int(0).SortLess(Null()) {
		t.Error("non-null never sorts before NULL")
	}
	if Null().SortLess(Null()) {
		t.Error("NULL !< NULL")
	}
	if !Int(1).SortLess(Int(2)) || Int(2).SortLess(Int(1)) {
		t.Error("int ordering broken")
	}
}

func TestEqual(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Error("Int(2) should equal Float(2)")
	}
	if Null().Equal(Null()) {
		t.Error("NULL never equals NULL")
	}
	if Str("a").Equal(Str("b")) {
		t.Error("a != b")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v V, err error) V {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Int(2).Add(Int(3))); !got.Equal(Int(5)) || got.Kind() != KindInt {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Int(2).Add(Float(0.5))); !got.Equal(Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Int(7).Sub(Int(2))); !got.Equal(Int(5)) {
		t.Errorf("7-2 = %v", got)
	}
	if got := mustV(Int(4).Mul(Int(3))); !got.Equal(Int(12)) {
		t.Errorf("4*3 = %v", got)
	}
	if got := mustV(Int(7).Div(Int(2))); !got.Equal(Float(3.5)) {
		t.Errorf("7/2 = %v (division is always float)", got)
	}
	if got := mustV(Int(7).Div(Int(0))); !got.IsNull() {
		t.Errorf("7/0 = %v, want NULL", got)
	}
	if got := mustV(Int(7).Mod(Int(4))); !got.Equal(Int(3)) {
		t.Errorf("7%%4 = %v", got)
	}
	if got := mustV(Int(7).Mod(Int(0))); !got.IsNull() {
		t.Errorf("7%%0 = %v, want NULL", got)
	}
	if got := mustV(Int(5).Neg()); !got.Equal(Int(-5)) {
		t.Errorf("-5 = %v", got)
	}
	if got := mustV(Float(2.5).Neg()); !got.Equal(Float(-2.5)) {
		t.Errorf("-2.5 = %v", got)
	}
	if got := mustV(Str("ab").Add(Str("cd"))); !got.Equal(Str("abcd")) {
		t.Errorf("string concat = %v", got)
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	ops := []func(V, V) (V, error){V.Add, V.Sub, V.Mul, V.Div, V.Mod}
	for i, op := range ops {
		if got, err := op(Null(), Int(1)); err != nil || !got.IsNull() {
			t.Errorf("op %d: NULL op 1 = %v, %v", i, got, err)
		}
		if got, err := op(Int(1), Null()); err != nil || !got.IsNull() {
			t.Errorf("op %d: 1 op NULL = %v, %v", i, got, err)
		}
	}
	if got, err := Null().Neg(); err != nil || !got.IsNull() {
		t.Errorf("-NULL = %v, %v", got, err)
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	if _, err := Str("a").Add(Int(1)); err == nil {
		t.Error("string + int should error")
	}
	if _, err := Bool(true).Mul(Int(2)); err == nil {
		t.Error("bool * int should error")
	}
	if _, err := Float(1.5).Mod(Int(2)); err == nil {
		t.Error("float %% int should error")
	}
	if _, err := Str("x").Neg(); err == nil {
		t.Error("-string should error")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{
		{Null(), "NULL"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Str("hi"), "hi"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := Str("it's").SQLString(); got != "'it''s'" {
		t.Errorf("SQLString = %q", got)
	}
	if got := Int(5).SQLString(); got != "5" {
		t.Errorf("SQLString int = %q", got)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want V
	}{
		{"", Null()},
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.25", Float(3.25)},
		{"true", Bool(true)},
		{"False", Bool(false)},
		{"null", Null()},
		{"hello", Str("hello")},
		{"12abc", Str("12abc")},
	}
	for _, tc := range cases {
		got := Parse(tc.in)
		if got.Kind() != tc.want.Kind() {
			t.Errorf("Parse(%q) kind = %v, want %v", tc.in, got.Kind(), tc.want.Kind())
			continue
		}
		if !got.IsNull() && !got.Equal(tc.want) {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseAs(t *testing.T) {
	if v, err := ParseAs("7", KindInt); err != nil || !v.Equal(Int(7)) {
		t.Errorf("ParseAs int = %v, %v", v, err)
	}
	if v, err := ParseAs("7.5", KindFloat); err != nil || !v.Equal(Float(7.5)) {
		t.Errorf("ParseAs float = %v, %v", v, err)
	}
	if v, err := ParseAs("t", KindBool); err != nil || !v.Equal(Bool(true)) {
		t.Errorf("ParseAs bool = %v, %v", v, err)
	}
	if v, err := ParseAs("x", KindString); err != nil || !v.Equal(Str("x")) {
		t.Errorf("ParseAs string = %v, %v", v, err)
	}
	if v, err := ParseAs("", KindInt); err != nil || !v.IsNull() {
		t.Errorf("ParseAs empty = %v, %v (want NULL)", v, err)
	}
	if _, err := ParseAs("abc", KindInt); err == nil {
		t.Error("ParseAs(abc, int) should fail")
	}
	if _, err := ParseAs("abc", KindFloat); err == nil {
		t.Error("ParseAs(abc, float) should fail")
	}
	if _, err := ParseAs("abc", KindBool); err == nil {
		t.Error("ParseAs(abc, bool) should fail")
	}
}

func TestEncodeKeyDistinct(t *testing.T) {
	vals := []V{
		Null(), Bool(true), Bool(false), Int(0), Int(1), Int(-1),
		Float(0), Float(1.5), Str(""), Str("a"), Str("ab"),
	}
	seen := map[string]V{}
	for _, v := range vals {
		k := string(v.EncodeKey(nil))
		if prev, dup := seen[k]; dup {
			t.Errorf("EncodeKey collision: %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestHashNumericCanonicalization(t *testing.T) {
	if Int(2).Hash() != Float(2).Hash() {
		t.Error("Int(2) and Float(2) must hash equal")
	}
	if Int(2).Hash() == Int(3).Hash() {
		t.Error("suspicious hash collision 2 vs 3")
	}
}

// TestHashIsFNV1aOfKeyEncoding pins the straight-line Hash to its
// definition — FNV-1a over the EncodeKey bytes, exact integers first
// canonicalized to the float encoding — for every kind, so sketch
// fingerprints, cache keys and persisted-tree names never move.
func TestHashIsFNV1aOfKeyEncoding(t *testing.T) {
	for _, v := range []V{
		Null(), Bool(false), Bool(true),
		Int(0), Int(2), Int(-7), Int(math.MinInt64), Int(math.MaxInt64), Int(1<<53 + 1),
		Float(2), Float(0), Float(math.Copysign(0, -1)), Float(-1.5), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Str(""), Str("a"), Str("free"), Str("naïve café ☕"), Str(string(make([]byte, 300))),
	} {
		u := v
		if v.Kind() == KindInt {
			u = Float(float64(v.IntVal()))
		}
		want := uint64(14695981039346656037) // FNV-1a, 64-bit: offset basis …
		for _, b := range u.EncodeKey(nil) {
			want = (want ^ uint64(b)) * 1099511628211 // … and prime
		}
		if got := v.Hash(); got != want {
			t.Errorf("%s (%s): Hash = %#x, FNV-1a of its key encoding = %#x", v.SQLString(), v.Kind(), got, want)
		}
	}
	if Int(2).Hash() != Float(2).Hash() {
		t.Error("Int(2) and Float(2) must hash equal")
	}
	if Float(0).Hash() == Float(math.Copysign(0, -1)).Hash() {
		t.Error("+0.0 and -0.0 encode differently and must hash differently")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = Str("gluten-free pasta #12").Hash() + Float(3.5).Hash() }); allocs != 0 {
		t.Errorf("Hash allocates %.1f times per call, want 0", allocs)
	}
}

// TestIdenticalDrawsTheKeyEncodingLine: two datums are Identical
// exactly when their key encodings are the same bytes.
func TestIdenticalDrawsTheKeyEncodingLine(t *testing.T) {
	vs := []V{
		Null(), Bool(false), Bool(true), Int(0), Int(1), Float(0), Float(math.Copysign(0, -1)), Float(1),
		Float(math.NaN()), Str(""), Str("1"), Str("NULL"), Str("true"),
	}
	for _, a := range vs {
		for _, b := range vs {
			want := string(a.EncodeKey(nil)) == string(b.EncodeKey(nil))
			if got := a.Identical(b); got != want {
				t.Errorf("%s (%s) Identical %s (%s) = %v, key encodings equal = %v", a.SQLString(), a.Kind(), b.SQLString(), b.Kind(), got, want)
			}
		}
	}
}

// --- property-based tests -------------------------------------------------

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, _ := Int(a).Compare(Int(b))
		c2, _ := Int(b).Compare(Int(a))
		return sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		x, err1 := Int(int64(a)).Add(Int(int64(b)))
		y, err2 := Int(int64(b)).Add(Int(int64(a)))
		return err1 == nil && err2 == nil && x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubAddRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		sum, _ := Int(int64(a)).Add(Int(int64(b)))
		back, _ := sum.Sub(Int(int64(b)))
		return back.Equal(Int(int64(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropParseRoundTripInt(t *testing.T) {
	f := func(a int64) bool {
		v := Parse(strconv.FormatInt(a, 10))
		return v.Kind() == KindInt && v.IntVal() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropFloatCompareMatchesGo(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN excluded: datums never hold NaN in practice
		}
		c, null := Float(a).Compare(Float(b))
		if null {
			return false
		}
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropEncodeKeyInjectiveInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := string(Int(a).EncodeKey(nil))
		kb := string(Int(b).EncodeKey(nil))
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeKeyRoundTrip(t *testing.T) {
	vals := []V{
		Null(), Bool(true), Bool(false), Int(0), Int(-42), Int(1 << 40),
		Float(3.25), Float(-0.5), Str(""), Str("hello"), Str("with \x00 byte"),
	}
	// One buffer holding every encoding back to back: DecodeKey must be
	// self-delimiting, consuming exactly its own bytes.
	var buf []byte
	for _, v := range vals {
		buf = v.EncodeKey(buf)
	}
	rest := buf
	for i, want := range vals {
		var got V
		var err error
		got, rest, err = DecodeKey(rest)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got.Kind() != want.Kind() || got.String() != want.String() {
			t.Fatalf("value %d: decoded %s %q, want %s %q", i, got.Kind(), got, want.Kind(), want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all values", len(rest))
	}
}

func TestDecodeKeyRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"unknown kind":      {99},
		"truncated bool":    {byte(KindBool)},
		"bool byte not 0/1": {byte(KindBool), 0x30},
		"truncated int":     {byte(KindInt), 1, 2, 3},
		"truncated float":   {byte(KindFloat), 1},
		"truncated strlen":  {byte(KindString), 0, 0},
		"string overrun":    Str("hello").EncodeKey(nil)[:10],
	}
	for name, in := range cases {
		if _, _, err := DecodeKey(in); err == nil {
			t.Errorf("%s: DecodeKey accepted corrupt input %v", name, in)
		}
	}
}
