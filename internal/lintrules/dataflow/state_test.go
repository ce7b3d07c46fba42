package dataflow

import (
	"go/types"
	"sort"
	"testing"

	"stochstream/internal/lintrules/load"
)

// loadFieldProgram loads the fieldsum corpus and its FieldFacts store.
func loadFieldProgram(t *testing.T) (*Program, *FactStore) {
	t.Helper()
	l, err := load.NewLoader("", "testdata/src")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := l.Load("fieldsum"); err != nil {
		t.Fatalf("Load fieldsum: %v", err)
	}
	p := NewProgram(l.Fset, l.SourcePackages())
	return p, FieldFacts(p)
}

func summaryOf(t *testing.T, p *Program, store *FactStore, fn string) *FieldSummary {
	t.Helper()
	f := funcByName(t, p, fn)
	s := FieldSummaryOf(store, f.Obj)
	if s == nil {
		t.Fatalf("no field summary for %s", fn)
	}
	return s
}

func names(set map[*types.Var]bool) []string {
	var out []string
	for f := range set {
		out = append(out, f.Name())
	}
	sort.Strings(out)
	return out
}

func wantSet(t *testing.T, fn, kind string, got map[*types.Var]bool, want ...string) {
	t.Helper()
	g := names(got)
	if len(g) != len(want) {
		t.Errorf("%s %s = %v, want %v", fn, kind, g, want)
		return
	}
	for i := range want {
		if g[i] != want[i] {
			t.Errorf("%s %s = %v, want %v", fn, kind, g, want)
			return
		}
	}
}

// TestFieldAccessClassification pins which fields each corpus function
// reads, itself or through its callees: a plain store's target is not read.
func TestFieldAccessClassification(t *testing.T) {
	p, store := loadFieldProgram(t)
	cases := []struct {
		fn    string
		reads []string
	}{
		{"plainWrite", nil},
		{"compound", []string{"b"}},
		{"incdec", []string{"c"}},
		// The base selector of an index, address-of or copy target is read
		// (the slice/map header).
		{"indexMutate", []string{"items"}},
		{"mapMutate", []string{"m"}},
		{"addrMutate", []string{"a"}},
		{"copyMutate", []string{"items"}},
		// The callee Bump's own summary (n read) merges in through the call
		// edge.
		{"ptrRecvCall", []string{"n", "tr"}},
		{"valRecvCall", []string{"agg", "n"}},
		{"chainWrite", []string{"agg"}},
		{"readOnly", []string{"a", "b"}},
		{"keyedLit", nil},
		{"positionalLit", nil},
		{"wholeStore", nil},
		// Two helper hops between the caller and the store.
		{"writeViaHelper", nil},
		{"readViaHelper", []string{"a", "b"}},
	}
	for _, c := range cases {
		s := summaryOf(t, p, store, c.fn)
		wantSet(t, c.fn, "reads", s.Reads, c.reads...)
	}
}
