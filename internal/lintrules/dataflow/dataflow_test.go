package dataflow

import (
	"sort"
	"testing"

	"stochstream/internal/lintrules/load"
)

// loadProgram loads the dfa corpus through the overlay loader and indexes it.
func loadProgram(t *testing.T) *Program {
	t.Helper()
	l, err := load.NewLoader("", "testdata/src")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if _, err := l.Load("dfa"); err != nil {
		t.Fatalf("Load dfa: %v", err)
	}
	return NewProgram(l.Fset, l.SourcePackages())
}

func funcByName(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	for _, f := range p.Funcs() {
		if f.Obj.Name() == name {
			return f
		}
	}
	t.Fatalf("function %q not in program", name)
	return nil
}

func calleeNames(f *Func) []string {
	var out []string
	for _, c := range f.Calls {
		if c.Callee != nil {
			out = append(out, c.Callee.Obj.Name())
		}
	}
	sort.Strings(out)
	return out
}

func TestCallGraphEdges(t *testing.T) {
	p := loadProgram(t)
	cases := []struct {
		fn   string
		want []string
	}{
		{"top", []string{"clean", "mid"}},
		{"mid", []string{"source"}},
		{"callsMethod", []string{"bump"}}, // concrete method resolves statically
		{"even", []string{"odd"}},
		{"clean", nil},
	}
	for _, c := range cases {
		got := calleeNames(funcByName(t, p, c.fn))
		if len(got) != len(c.want) {
			t.Fatalf("%s callees = %v, want %v", c.fn, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s callees = %v, want %v", c.fn, got, c.want)
			}
		}
	}
}

func TestSCCBottomUpOrder(t *testing.T) {
	p := loadProgram(t)
	sccIndex := map[string]int{}
	for i, scc := range p.SCCs() {
		for _, f := range scc {
			sccIndex[f.Obj.Name()] = i
		}
	}
	// Callees' SCCs must come before their callers' (the solver relies on it).
	for _, pair := range [][2]string{{"source", "mid"}, {"mid", "top"}, {"clean", "top"}, {"bump", "callsMethod"}} {
		if sccIndex[pair[0]] >= sccIndex[pair[1]] {
			t.Errorf("SCC of %s (%d) not before SCC of %s (%d)", pair[0], sccIndex[pair[0]], pair[1], sccIndex[pair[1]])
		}
	}
	// Mutual recursion collapses into one component.
	if sccIndex["even"] != sccIndex["odd"] {
		t.Errorf("even (scc %d) and odd (scc %d) should share an SCC", sccIndex["even"], sccIndex["odd"])
	}
}

func TestFactsFixedPoint(t *testing.T) {
	p := loadProgram(t)
	// Toy taint: source() is the root; taint propagates through static calls.
	transfer := func(f *Func, store *FactStore) interface{} {
		if f.Obj.Name() == "source" {
			return true
		}
		for _, c := range f.Calls {
			if v, _ := store.Get(c.StaticObj).(bool); v {
				return true
			}
		}
		return false
	}
	eq := func(a, b interface{}) bool { return a == b }
	store := p.Facts("toytaint", transfer, eq)
	for name, want := range map[string]bool{
		"source": true, "mid": true, "top": true,
		"clean": false, "even": false, "odd": false,
	} {
		f := funcByName(t, p, name)
		if got, _ := store.Get(f.Obj).(bool); got != want {
			t.Errorf("taint(%s) = %v, want %v", name, got, want)
		}
	}
	if again := p.Facts("toytaint", transfer, eq); again != store {
		t.Error("Facts not memoized by name")
	}
}

// SCCs returns the call graph's strongly connected components in bottom-up
// order (every component before the components that call into it).
func (p *Program) SCCs() [][]*Func { return p.sccs }
