package cachesim

// Reduce converts a caching-problem reference sequence into the two joining
// streams of the Section 2 reduction: the i-th occurrence (0-based) of value
// v becomes the pair (v, i) in the reference stream R′ and (v, i+1) in the
// supply stream S′, so that each supply tuple joins exactly the next
// occurrence of its value. Pairs are encoded into single ints via a dense
// dictionary, preserving equality.
func Reduce(refs []int) (rPrime, sPrime []int) {
	occ := make(map[int]int, len(refs))
	code := make(map[[2]int]int)
	encode := func(v, i int) int {
		k := [2]int{v, i}
		c, ok := code[k]
		if !ok {
			c = len(code)
			code[k] = c
		}
		return c
	}
	rPrime = make([]int, len(refs))
	sPrime = make([]int, len(refs))
	for t, v := range refs {
		i := occ[v]
		occ[v] = i + 1
		rPrime[t] = encode(v, i)
		sPrime[t] = encode(v, i+1)
	}
	return rPrime, sPrime
}
