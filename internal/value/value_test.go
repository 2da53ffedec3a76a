package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() || NewInt(3).IsNull() {
		t.Fatal("IsNull")
	}
	if NewInt(7).AsFloat() != 7 || NewFloat(2.5).AsFloat() != 2.5 {
		t.Fatal("AsFloat")
	}
	if NewFloat(9.9).AsInt() != 9 || NewInt(-4).AsInt() != -4 {
		t.Fatal("AsInt")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() || NewInt(1).Bool() {
		t.Fatal("Bool")
	}
	if !NewInt(1).IsNumeric() || NewString("x").IsNumeric() || Null.IsNumeric() {
		t.Fatal("IsNumeric")
	}
}

func TestDates(t *testing.T) {
	d, err := ParseDate("2011-07-04")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "2011-07-04" {
		t.Fatalf("round trip: %s", d)
	}
	if d.Time().Weekday() != time.Monday {
		t.Fatalf("2011-07-04 was a Monday, got %v", d.Time().Weekday())
	}
	if NewDate(2011, time.July, 4) != d {
		t.Fatal("NewDate mismatch")
	}
	if _, err := ParseDate("2011-13-45"); err == nil {
		t.Fatal("bad date accepted")
	}
	// Interval arithmetic.
	if got := AddMonths(d, 6).String(); got != "2012-01-04" {
		t.Fatalf("AddMonths: %s", got)
	}
	if got := AddYears(d, -1).String(); got != "2010-07-04" {
		t.Fatalf("AddYears: %s", got)
	}
	plus90, err := Arith('+', d, NewInt(90))
	if err != nil || plus90.String() != "2011-10-02" {
		t.Fatalf("date+90: %v %v", plus90, err)
	}
	diff, err := Arith('-', plus90, d)
	if err != nil || diff.AsInt() != 90 {
		t.Fatalf("date-date: %v", diff)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewFloat(2.0), NewInt(2), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("10"), NewInt(9), 1}, // numeric string coercion
		{NewBool(true), NewInt(1), 0},
		{NewDate(2000, 1, 1), NewDate(1999, 12, 31), 1},
	}
	for _, c := range cases {
		got, ok := Compare(c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("Compare(%v,%v) = %d,%v want %d", c.a, c.b, got, ok, c.want)
		}
	}
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	vals := []Value{NewInt(-3), NewInt(0), NewFloat(2.5), NewString("a"),
		NewString("2.5"), NewBool(true), NewDate(2020, 5, 5)}
	for _, a := range vals {
		for _, b := range vals {
			ab, ok1 := Compare(a, b)
			ba, ok2 := Compare(b, a)
			if ok1 != ok2 || ab != -ba {
				t.Errorf("antisymmetry broken for %v vs %v: %d %d", a, b, ab, ba)
			}
		}
	}
}

func TestTristateLogic(t *testing.T) {
	ts := []Tristate{False, True, Unknown}
	for _, a := range ts {
		if And(a, False) != False || And(False, a) != False {
			t.Error("AND false")
		}
		if Or(a, True) != True || Or(True, a) != True {
			t.Error("OR true")
		}
		if Not(Not(a)) != a {
			t.Error("double negation")
		}
	}
	if And(True, Unknown) != Unknown || Or(False, Unknown) != Unknown {
		t.Error("Kleene unknown propagation")
	}
	if TristateOf(Null) != Unknown || TristateOf(NewInt(0)) != False || TristateOf(NewInt(5)) != True {
		t.Error("TristateOf")
	}
	if Unknown.ToValue() != Null || True.ToValue() != NewBool(true) {
		t.Error("ToValue")
	}
}

func TestArith(t *testing.T) {
	got, _ := Arith('+', NewInt(2), NewInt(3))
	if got != NewInt(5) {
		t.Fatal("int add")
	}
	got, _ = Arith('*', NewInt(4), NewFloat(0.5))
	if got.AsFloat() != 2 {
		t.Fatal("mixed mul")
	}
	got, _ = Arith('/', NewInt(5), NewInt(2))
	if got.AsFloat() != 2.5 {
		t.Fatal("division is exact: want 2.5")
	}
	got, _ = Arith('/', NewInt(5), NewInt(0))
	if !got.IsNull() {
		t.Fatal("division by zero yields NULL")
	}
	got, _ = Arith('%', NewInt(7), NewInt(3))
	if got != NewInt(1) {
		t.Fatal("mod")
	}
	got, _ = Arith('+', Null, NewInt(1))
	if !got.IsNull() {
		t.Fatal("NULL propagation")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Alice", "A%", true},
		{"alice", "A%", true}, // case-insensitive
		{"Bob", "A%", false},
		{"Canada", "%ada", true},
		{"Canada", "%ana%", true},
		{"Canada", "C_n_d_", true},
		{"Canada", "C_n_d", false},
		{"", "%", true},
		{"", "_", false},
		{"STANDARD BRASS", "%BRASS", true},
		{"abc", "abc", true},
		{"ab", "a%b%c", false},
		{"axbyc", "a%b%c", true},
	}
	for _, c := range cases {
		if Like(c.s, c.p) != c.want {
			t.Errorf("Like(%q,%q) != %v", c.s, c.p, c.want)
		}
	}
}

// Property: hashing respects Equal — equal values hash equally, including
// across int/float kinds.
func TestQuickHashRespectsEqual(t *testing.T) {
	f := func(n int32) bool {
		a := NewInt(int64(n))
		b := NewFloat(float64(n))
		return Equal(a, b) && a.Hash() == b.Hash() &&
			Key([]Value{a}) == Key([]Value{b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct ints virtually never collide under Hash or Key.
func TestQuickHashSeparates(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		va, vb := NewInt(a), NewInt(b)
		return va.Hash() != vb.Hash() && Key([]Value{va}) != Key([]Value{vb})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order consistent with Equal for non-null
// values of the same kind.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := NewInt(a), NewInt(b), NewInt(c)
		ab, _ := Compare(va, vb)
		bc, _ := Compare(vb, vc)
		ac, _ := Compare(va, vc)
		// Transitivity of <=.
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false
		}
		return (ab == 0) == Equal(va, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string Key round-trips distinctness (prefix-free encoding).
func TestQuickKeyPrefixFree(t *testing.T) {
	f := func(s1, s2 string, n int8) bool {
		// ("ab","c") must differ from ("a","bc") style splits.
		k1 := Key([]Value{NewString(s1), NewString(s2)})
		k2 := Key([]Value{NewString(s1 + s2), NewString("")})
		if s2 == "" {
			return true
		}
		return k1 != k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSQLRendering(t *testing.T) {
	if NewString("O'Brien").SQL() != "'O''Brien'" {
		t.Error("quote escaping")
	}
	if NewDate(2011, 1, 2).SQL() != "date '2011-01-02'" {
		t.Error("date literal")
	}
	if NewInt(-5).SQL() != "-5" {
		t.Error("int literal")
	}
	if Null.String() != "NULL" || NewBool(true).String() != "TRUE" {
		t.Error("rendering")
	}
}

func TestFloatHashIntegralNormalization(t *testing.T) {
	// Non-integral floats hash by bits; integral ones normalize to ints.
	a, b := NewFloat(1.5), NewFloat(1.5)
	if a.Hash() != b.Hash() {
		t.Fatal("identical floats must collide")
	}
	if NewFloat(math.Pi).Hash() == NewFloat(math.E).Hash() {
		t.Fatal("distinct floats should differ")
	}
}

// Key and Hash follow Compare's case-sensitive string collation, so a
// grouping or hash-join key never merges values a comparison separates.
func TestStringKeyCasePreserving(t *testing.T) {
	up, low := NewString("ASIA"), NewString("asia")
	if Equal(up, low) {
		t.Fatal("Equal is case-sensitive")
	}
	if Key([]Value{up}) == Key([]Value{low}) || up.Hash() == low.Hash() {
		t.Fatal("Key/Hash must not fold case")
	}
	if !Like("ASIA", "asia") {
		t.Fatal("LIKE stays case-insensitive")
	}
	if got := string(AppendKey([]byte("x"), []Value{up, NewInt(1)})); got != "x"+Key([]Value{up, NewInt(1)}) {
		t.Fatal("AppendKey must extend its buffer with Key")
	}
}
