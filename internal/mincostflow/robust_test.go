package mincostflow

import (
	"errors"
	"testing"
)

// TestNegativeCycleIsErrorNotPanic: a negative-cost cycle surfaces as
// ErrNumericalInstability from the Bellman–Ford pass, while a cycle whose
// arcs are negative but whose total cost is not solves normally.
func TestNegativeCycleIsErrorNotPanic(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(1, 2, 1, -3)
	g.AddArc(2, 1, 1, 1) // cycle 1→2→1, total cost -2
	g.AddArc(2, 3, 1, 0)
	_, err := g.MinCostFlow(0, 3, 1)
	if !errors.Is(err, ErrNumericalInstability) {
		t.Fatalf("err = %v, want ErrNumericalInstability", err)
	}

	g = New(4)
	g.AddArc(0, 1, 2, -1)
	g.AddArc(1, 2, 2, -1)
	g.AddArc(2, 1, 1, 2) // cycle 1→2→1, total cost +1
	g.AddArc(2, 3, 2, 0)
	res, err := g.MinCostFlow(0, 3, 2)
	if err != nil || res.Flow != 2 {
		t.Fatalf("legal cycle: res = %+v err = %v, want flow 2", res, err)
	}
}
