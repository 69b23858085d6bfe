package pdb

import (
	"strings"
	"testing"
)

func TestValueKinds(t *testing.T) {
	if !Null().IsNull() || Null().Kind() != KindNull {
		t.Fatal("Null broken")
	}
	if Float(2).Kind() != KindFloat || Bool(true).Kind() != KindBool || Str("x").Kind() != KindString {
		t.Fatal("kinds broken")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindFloat: "FLOAT", KindBool: "BOOL", KindString: "STRING",
	} {
		if k.String() != want {
			t.Fatalf("%v != %s", k, want)
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind")
	}
}

func TestAsFloat(t *testing.T) {
	if f, err := Float(2.5).AsFloat(); err != nil || f != 2.5 {
		t.Fatal("float unwrap broken")
	}
	if f, err := Bool(true).AsFloat(); err != nil || f != 1 {
		t.Fatal("bool->float broken")
	}
	if f, err := Bool(false).AsFloat(); err != nil || f != 0 {
		t.Fatal("false->float broken")
	}
	if _, err := Str("x").AsFloat(); err == nil {
		t.Fatal("string->float succeeded")
	}
	if _, err := Null().AsFloat(); err == nil {
		t.Fatal("null->float succeeded")
	}
}

func TestAsBool(t *testing.T) {
	if b, err := Bool(true).AsBool(); err != nil || !b {
		t.Fatal("bool unwrap broken")
	}
	if b, err := Float(0).AsBool(); err != nil || b {
		t.Fatal("0 should be falsy")
	}
	if b, err := Float(-3).AsBool(); err != nil || !b {
		t.Fatal("-3 should be truthy")
	}
	if _, err := Str("x").AsBool(); err == nil {
		t.Fatal("string->bool succeeded")
	}
}

func TestText(t *testing.T) {
	if s, err := Str("hello").Text(); err != nil || s != "hello" {
		t.Fatal("Text broken")
	}
	if _, err := Float(1).Text(); err == nil {
		t.Fatal("float Text succeeded")
	}
}

func TestEqual(t *testing.T) {
	if !Float(2).Equal(Float(2)) || Float(2).Equal(Float(3)) {
		t.Fatal("float equality broken")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Fatal("string equality broken")
	}
	if Null().Equal(Null()) {
		t.Fatal("NULL must not equal NULL")
	}
	// Numeric values compare by number across float and bool, as
	// Compare and exec's "=" do; a string never equals a number.
	if !Float(1).Equal(Bool(true)) || !Bool(false).Equal(Float(0)) || Float(2).Equal(Bool(true)) {
		t.Fatal("float/bool equality is not numeric")
	}
	if Str("1").Equal(Float(1)) || Float(1).Equal(Str("1")) {
		t.Fatal("cross-kind equality")
	}
}

func TestCompare(t *testing.T) {
	if c, err := Float(1).Compare(Float(2)); err != nil || c != -1 {
		t.Fatal("float compare broken")
	}
	if c, err := Str("b").Compare(Str("a")); err != nil || c != 1 {
		t.Fatal("string compare broken")
	}
	if c, err := Bool(true).Compare(Bool(true)); err != nil || c != 0 {
		t.Fatal("bool compare broken")
	}
	if c, err := Bool(false).Compare(Bool(true)); err != nil || c != -1 {
		t.Fatal("bool order broken")
	}
	// Numeric coercion across float/bool.
	if c, err := Float(0.5).Compare(Bool(true)); err != nil || c != -1 {
		t.Fatal("mixed numeric compare broken")
	}
	if _, err := Null().Compare(Float(1)); err == nil {
		t.Fatal("NULL compare succeeded")
	}
	if _, err := Str("a").Compare(Float(1)); err == nil {
		t.Fatal("string/float compare succeeded")
	}
}

func TestValueString(t *testing.T) {
	for v, want := range map[string]string{
		Null().String():      "NULL",
		Float(1.5).String():  "1.5",
		Bool(true).String():  "true",
		Bool(false).String(): "false",
		Str("hi").String():   "hi",
	} {
		if v != want {
			t.Fatalf("String %q != %q", v, want)
		}
	}
}

func TestSchemaOps(t *testing.T) {
	tbl := MustNewTable("a", "b")
	if i, err := tbl.Schema.IndexOf("b"); err != nil || i != 1 {
		t.Fatal("IndexOf broken")
	}
	if _, err := tbl.Schema.IndexOf("z"); err == nil {
		t.Fatal("missing column found")
	}
	if !tbl.Schema.Has("a") || tbl.Schema.Has("z") {
		t.Fatal("Has broken")
	}
	joined := tbl.Schema.Concat(Schema{{Name: "c"}})
	if len(joined) != 3 || joined[2].Name != "c" {
		t.Fatal("Concat broken")
	}
	if tbl.Schema.String() != "a, b" {
		t.Fatalf("Schema.String = %q", tbl.Schema.String())
	}
}

func TestTableConstruction(t *testing.T) {
	if _, err := NewTable("a", "a"); err == nil {
		t.Fatal("duplicate columns accepted")
	}
	if _, err := NewTable(""); err == nil {
		t.Fatal("empty column accepted")
	}
	tbl := MustNewTable("x", "y")
	if err := tbl.Append(Row{Float(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	tbl.MustAppend(Row{Float(1), Str("a")})
	tbl.MustAppend(Row{Float(2), Str("b")})
	if tbl.Len() != 2 {
		t.Fatal("Len broken")
	}
	if s := tbl.String(); !strings.Contains(s, "x, y") {
		t.Fatalf("Table.String = %q", s)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Float(1)}
	c := r.Clone()
	c[0] = Float(9)
	if f, _ := r[0].AsFloat(); f != 1 {
		t.Fatal("Clone aliases")
	}
}

func TestMustNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewTable did not panic")
		}
	}()
	MustNewTable("a", "a")
}
