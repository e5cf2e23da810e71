package ctype

import (
	"strings"
	"testing"

	"incxml/internal/cond"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

func v(n int64) rat.Rat { return rat.FromInt(n) }

// simpleType builds: root r; r -> a* b+ | c?; a leaf with cond != 0;
// b leaf; c leaf with unsatisfiable cond.
func simpleType() *Type {
	t := New()
	t.Roots = []Symbol{"r"}
	t.Sigma["r"] = LabelTarget("r")
	t.Sigma["a"] = LabelTarget("a")
	t.Sigma["b"] = LabelTarget("b")
	t.Sigma["c"] = LabelTarget("c")
	t.Mu["r"] = Disj{
		SAtom{{Sym: "a", Mult: dtd.Star}, {Sym: "b", Mult: dtd.Plus}},
		SAtom{{Sym: "c", Mult: dtd.Opt}},
	}
	t.Cond["a"] = cond.NeInt(0)
	t.Cond["c"] = cond.False()
	return t
}

func TestFromDTD(t *testing.T) {
	base := dtd.MustParse("root: catalog\ncatalog -> product+\nproduct -> name price\n")
	ct := FromDTD(base)
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ct.Roots) != 1 || ct.Roots[0] != "catalog" {
		t.Fatalf("roots = %v", ct.Roots)
	}
	d := ct.DisjFor("product")
	if len(d) != 1 || len(d[0]) != 2 {
		t.Fatalf("product disj = %v", d)
	}
	if ct.Empty() {
		t.Error("catalog type should be nonempty")
	}
	// Conformance must agree with the dtd validator on label-only trees.
	good := tree.Tree{Root: tree.New("catalog", rat.Zero,
		tree.New("product", rat.Zero,
			tree.New("name", rat.Zero), tree.New("price", rat.Zero)))}
	if ct.Member(good) != base.Conforms(good) || !ct.Member(good) {
		t.Error("membership disagrees with dtd validation on a valid tree")
	}
	bad := tree.Tree{Root: tree.New("catalog", rat.Zero)}
	if ct.Member(bad) {
		t.Error("catalog with no product accepted")
	}
}

func TestProductiveAndEmpty(t *testing.T) {
	ty := simpleType()
	prod := ty.Productive(nil)
	if !prod["r"] || !prod["a"] || !prod["b"] {
		t.Errorf("productive = %v", prod)
	}
	if prod["c"] {
		t.Error("c has unsatisfiable condition but is productive")
	}
	if ty.Empty() {
		t.Error("type should be nonempty")
	}
	// With b dead, the first disjunct is not viable, but the second (c?) still
	// admits a leaf root: the type stays nonempty.
	ty.Cond["b"] = cond.False()
	if ty.Empty() {
		t.Error("leaf-root escape should keep the type nonempty")
	}
	// Requiring dead symbols in every disjunct makes it empty.
	ty.Mu["r"] = Disj{SAtom{{Sym: "b", Mult: dtd.One}}, SAtom{{Sym: "c", Mult: dtd.Plus}}}
	if !ty.Empty() {
		t.Error("type with all disjuncts requiring dead symbols should be empty")
	}
}

func TestEmptyRecursive(t *testing.T) {
	// r -> r : no finite tree exists.
	ty := New()
	ty.Roots = []Symbol{"r"}
	ty.Sigma["r"] = LabelTarget("r")
	ty.Mu["r"] = Disj{SAtom{{Sym: "r", Mult: dtd.One}}}
	if !ty.Empty() {
		t.Error("infinitely recursive type should be empty")
	}
	// Adding a leaf escape makes it nonempty.
	ty.Mu["r"] = append(ty.Mu["r"], SAtom{})
	if ty.Empty() {
		t.Error("type with leaf escape should be nonempty")
	}
}

func TestUseful(t *testing.T) {
	ty := simpleType()
	useful := ty.Useful(nil)
	if !useful["r"] || !useful["a"] || !useful["b"] {
		t.Errorf("useful = %v", useful)
	}
	if useful["c"] {
		t.Error("dead symbol c reported useful")
	}
	// A productive but unreachable symbol is not useful.
	ty.Sigma["z"] = LabelTarget("z")
	ty.Mu["z"] = Disj{SAtom{}}
	if ty.Useful(nil)["z"] {
		t.Error("unreachable z reported useful")
	}
	// A symbol required by a dead disjunct only is not useful: d appears only
	// alongside required dead c2.
	ty.Sigma["c2"] = LabelTarget("c2")
	ty.Cond["c2"] = cond.False()
	ty.Sigma["d"] = LabelTarget("d")
	ty.Mu["d"] = Disj{SAtom{}}
	ty.Mu["r"] = append(ty.Mu["r"], SAtom{{Sym: "c2", Mult: dtd.One}, {Sym: "d", Mult: dtd.Star}})
	if ty.Useful(nil)["d"] {
		t.Error("d reachable only via dead disjunct reported useful")
	}
}

func TestTrimUseless(t *testing.T) {
	ty := simpleType()
	trimmed := ty.TrimUseless()
	if _, ok := trimmed.Sigma["c"]; ok {
		t.Error("dead c survived trimming")
	}
	// Semantics preserved on a sample.
	sample := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(1)), tree.New("b", rat.Zero))}
	if ty.Member(sample) != trimmed.Member(sample) {
		t.Error("trim changed membership")
	}
	// The disjunct requiring c is gone but its ?-item sibling case remains:
	// the second disjunct becomes the empty atom (c dropped).
	leaf := tree.Tree{Root: tree.New("r", rat.Zero)}
	if !trimmed.Member(leaf) {
		t.Error("leaf root should remain a member after trim (c? dropped)")
	}
	if !ty.Member(leaf) {
		t.Error("leaf root should be a member before trim")
	}
}

func TestMemberConditions(t *testing.T) {
	ty := simpleType()
	ok := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(5)), tree.New("b", rat.Zero))}
	if !ty.Member(ok) {
		t.Error("valid tree rejected")
	}
	badValue := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(0)), tree.New("b", rat.Zero))}
	if ty.Member(badValue) {
		t.Error("a=0 violates cond(a) != 0 but was accepted")
	}
	noB := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(1)))}
	if ty.Member(noB) {
		t.Error("missing required b accepted")
	}
	manyB := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("b", rat.Zero), tree.New("b", rat.Zero), tree.New("b", rat.Zero))}
	if !ty.Member(manyB) {
		t.Error("b+ with three b rejected")
	}
	wrongLabel := tree.Tree{Root: tree.New("x", rat.Zero)}
	if ty.Member(wrongLabel) {
		t.Error("wrong root label accepted")
	}
	if ty.Member(tree.Empty()) {
		t.Error("empty tree accepted")
	}
}

func TestMemberSpecialization(t *testing.T) {
	// Two specializations of label a with disjoint conditions and different
	// allowed children: cheap a (<100) must be a leaf; expensive a (>=100)
	// must have one b child.
	ty := New()
	ty.Roots = []Symbol{"r"}
	ty.Sigma["r"] = LabelTarget("r")
	ty.Sigma["a1"] = LabelTarget("a")
	ty.Sigma["a2"] = LabelTarget("a")
	ty.Sigma["b"] = LabelTarget("b")
	ty.Mu["r"] = Disj{SAtom{{Sym: "a1", Mult: dtd.Star}, {Sym: "a2", Mult: dtd.Star}}}
	ty.Cond["a1"] = cond.LtInt(100)
	ty.Cond["a2"] = cond.GeInt(100)
	ty.Mu["a2"] = Disj{SAtom{{Sym: "b", Mult: dtd.One}}}
	cheapLeaf := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(50)))}
	if !ty.Member(cheapLeaf) {
		t.Error("cheap leaf a rejected")
	}
	cheapWithChild := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(50), tree.New("b", rat.Zero)))}
	if ty.Member(cheapWithChild) {
		t.Error("cheap a with child accepted")
	}
	richWithChild := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(150), tree.New("b", rat.Zero)))}
	if !ty.Member(richWithChild) {
		t.Error("expensive a with b rejected")
	}
	richLeaf := tree.Tree{Root: tree.New("r", rat.Zero, tree.New("a", v(150)))}
	if ty.Member(richLeaf) {
		t.Error("expensive leaf a accepted")
	}
}

func TestMemberNodeTarget(t *testing.T) {
	ty := New()
	ty.Roots = []Symbol{"rsym"}
	ty.Sigma["rsym"] = NodeTarget("n1")
	ty.Mu["rsym"] = Disj{SAtom{}}
	pinned := tree.Tree{Root: tree.NewID("n1", "root", rat.Zero)}
	if !ty.Member(pinned) {
		t.Error("pinned node rejected")
	}
	other := tree.Tree{Root: tree.NewID("n2", "root", rat.Zero)}
	if ty.Member(other) {
		t.Error("wrong node id accepted")
	}
}

func TestWitnessTree(t *testing.T) {
	ty := simpleType()
	w, ok := ty.WitnessTree()
	if !ok {
		t.Fatal("nonempty type has no witness")
	}
	if !ty.Member(w) {
		t.Errorf("witness not a member:\n%s", w)
	}
	dead := New()
	dead.Roots = []Symbol{"r"}
	dead.Sigma["r"] = LabelTarget("r")
	dead.Cond["r"] = cond.False()
	if _, ok := dead.WitnessTree(); ok {
		t.Error("empty type produced a witness")
	}
}

func TestValidateErrors(t *testing.T) {
	ty := New()
	ty.Roots = []Symbol{"r"}
	if err := ty.Validate(); err == nil {
		t.Error("missing sigma entry accepted")
	}
	ty.Sigma["r"] = LabelTarget("r")
	ty.Mu["r"] = Disj{SAtom{{Sym: "r", Mult: dtd.One}, {Sym: "r", Mult: dtd.Star}}}
	if err := ty.Validate(); err == nil {
		t.Error("duplicate symbol in atom accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	ty := simpleType()
	cp := ty.Clone()
	cp.Cond["a"] = cond.True()
	cp.Mu["r"] = Disj{}
	if ty.CondFor("a").IsTrue() {
		t.Error("clone mutation leaked into original cond")
	}
	if len(ty.DisjFor("r")) != 2 {
		t.Error("clone mutation leaked into original mu")
	}
}

func TestRename(t *testing.T) {
	ty := simpleType()
	rn := ty.Rename(func(s Symbol) Symbol { return "x_" + s })
	if err := rn.Validate(); err != nil {
		t.Fatal(err)
	}
	if rn.Roots[0] != "x_r" {
		t.Errorf("root = %v", rn.Roots)
	}
	// Semantics unchanged.
	sample := tree.Tree{Root: tree.New("r", rat.Zero,
		tree.New("a", v(3)), tree.New("b", rat.Zero))}
	if ty.Member(sample) != rn.Member(sample) {
		t.Error("rename changed semantics")
	}
}

func TestStringRendering(t *testing.T) {
	ty := simpleType()
	s := ty.String()
	for _, want := range []string{"root: r", "r -> a* b+ v c?", "cond(a) = != 0", "cond(c) = false"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestFixedValue(t *testing.T) {
	ty := New()
	ty.Sigma["n"] = LabelTarget("a")
	ty.Cond["n"] = cond.EqInt(7)
	if val, ok := ty.FixedValue("n"); !ok || !val.Equal(v(7)) {
		t.Errorf("FixedValue = %v %v", val, ok)
	}
	ty.Cond["m"] = cond.LeInt(7)
	if _, ok := ty.FixedValue("m"); ok {
		t.Error("range condition reported as fixed value")
	}
}
