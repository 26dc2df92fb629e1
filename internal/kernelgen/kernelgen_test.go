package kernelgen

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestVecFilesAreCurrent guards the R-blocked specializations and their
// shape rules against drifting from the generator: -vec and -shape outputs
// must match the checked-in files byte for byte.
func TestVecFilesAreCurrent(t *testing.T) {
	cases := []struct {
		path string
		gen  func() ([]byte, error)
	}{
		{"../kernels/vec_gen.go", GenerateVec},
		{"../lint/gates/shape_gen.go", GenerateShapeRules},
	}
	for _, c := range cases {
		want, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatalf("read checked-in file: %v", err)
		}
		got, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s is stale; regenerate with: go generate ./internal/kernels", c.path)
		}
	}
}

// TestGenerateVecShapes pins structural properties of the emitted
// specializations: every width gets all four primitives plus a shape rule,
// and the entry re-slices that make prove delete the per-element checks
// are present.
func TestGenerateVecShapes(t *testing.T) {
	src, err := GenerateVec()
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	rules, err := GenerateShapeRules()
	if err != nil {
		t.Fatal(err)
	}
	rs := string(rules)
	for _, w := range VecWidths {
		for _, prim := range []string{"zero", "addScaled", "hadamardAccum", "hadamardInto"} {
			fn := fmt.Sprintf("%s%d", prim, w)
			if !strings.Contains(s, "func "+fn+"(") {
				t.Errorf("vec_gen.go lacks %s", fn)
			}
			if !strings.Contains(rs, fmt.Sprintf("kernels.%s", fn)) {
				t.Errorf("shape_gen.go lacks a rule for kernels.%s", fn)
			}
		}
		if !strings.Contains(s, fmt.Sprintf("[:%d:%d]", w, w)) {
			t.Errorf("vec_gen.go lacks the [:%d:%d] entry re-slice", w, w)
		}
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "vec_gen.go", src, 0); err != nil {
		t.Fatalf("generated vec code does not parse: %v", err)
	}
	if _, err := parser.ParseFile(fset, "shape_gen.go", rules, 0); err != nil {
		t.Fatalf("generated shape rules do not parse: %v", err)
	}
}
