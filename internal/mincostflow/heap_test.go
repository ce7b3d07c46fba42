package mincostflow

import (
	"container/heap"
	"math/rand/v2"
	"testing"
)

// boxedHeap is the container/heap form nodeHeap replaced; it is the reference
// the typed heap's pop order is checked against.
type boxedHeap []heapItem

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *boxedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Dijkstra's paths, and so FlowExpect's choices among equal-cost flows,
// depend on which of several equal-dist nodes pops first. Over random
// interleavings of pushes and pops with many ties, the typed heap must pop
// exactly the node container/heap pops.
func TestNodeHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	for trial := 0; trial < 200; trial++ {
		var typed nodeHeap
		var boxed boxedHeap
		for op := 0; op < 400; op++ {
			if len(typed) == 0 || rng.IntN(3) > 0 {
				it := heapItem{node: int32(op), dist: float64(rng.IntN(8))}
				typed.push(it)
				heap.Push(&boxed, it)
				continue
			}
			if got, want := typed.pop(), heap.Pop(&boxed).(heapItem); got != want {
				t.Fatalf("trial %d op %d: popped %+v, container/heap pops %+v", trial, op, got, want)
			}
		}
	}
}
