// Package dfa is the dataflow package's own test corpus: a tiny program
// exercising call-graph construction, SCC ordering and the fixed-point
// solver. It is loaded through lintrules/load with this directory tree as
// the overlay root.
package dfa

func source() int { return 1 }

func mid() int { return source() }

func top() int { return mid() + clean() }

func clean() int { return 2 }

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

func callsMethod(c *counter) { c.bump() }

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
