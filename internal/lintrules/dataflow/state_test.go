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

func TestFieldAccessClassification(t *testing.T) {
	p, store := loadFieldProgram(t)
	cases := []struct {
		fn                     string
		reads, writes, mutates []string
	}{
		{"plainWrite", nil, []string{"a"}, nil},
		{"compound", []string{"b"}, []string{"b"}, nil},
		{"incdec", []string{"c"}, []string{"c"}, nil},
		// The base selector of an index, address-of or copy target is both
		// read (the slice/map header) and mutated (its element state).
		{"indexMutate", []string{"items"}, nil, []string{"items"}},
		{"mapMutate", []string{"m"}, nil, []string{"m"}},
		{"addrMutate", []string{"a"}, nil, []string{"a"}},
		{"copyMutate", []string{"items"}, nil, []string{"items"}},
		// The pointer-receiver call mutates the field; the callee Bump's own
		// summary (n read+write) merges in through the call edge.
		{"ptrRecvCall", []string{"n", "tr"}, []string{"n"}, []string{"tr"}},
		{"valRecvCall", []string{"agg", "n"}, nil, nil},
		{"chainWrite", []string{"agg"}, []string{"n"}, []string{"agg"}},
		{"readOnly", []string{"a", "b"}, nil, nil},
		{"keyedLit", nil, []string{"a", "c"}, nil},
		{"positionalLit", nil, []string{"n"}, nil},
		{"wholeStore", nil, []string{"n"}, nil},
		// Two helper hops between the caller and the write.
		{"writeViaHelper", nil, []string{"b"}, nil},
		{"readViaHelper", []string{"a", "b"}, nil, nil},
	}
	for _, c := range cases {
		s := summaryOf(t, p, store, c.fn)
		wantSet(t, c.fn, "reads", s.Reads, c.reads...)
		wantSet(t, c.fn, "writes", s.Writes, c.writes...)
		wantSet(t, c.fn, "mutates", s.Mutates, c.mutates...)
	}
}

func TestFieldSummaryHelpers(t *testing.T) {
	p, store := loadFieldProgram(t)
	s := summaryOf(t, p, store, "ptrRecvCall")
	var tr *types.Var
	for f := range s.Mutates {
		if f.Name() == "tr" {
			tr = f
		}
	}
	if tr == nil {
		t.Fatal("tr not in mutates")
	}
	if !s.Touches(tr) || !s.WritesOrMutates(tr) {
		t.Error("Touches/WritesOrMutates(tr) = false, want true")
	}
	if (*FieldSummary)(nil).Touches(tr) || (*FieldSummary)(nil).WritesOrMutates(tr) {
		t.Error("nil summary must touch nothing")
	}
}
