// Package streamd is the statecheck mutation corpus: Names lists a map's keys
// in sorted order, the idiom maprange accepts. TestStatecheckMutants deletes
// the line marked ci:mutate-sort and then expects maprange to fail the
// driver, naming the slice whose order is now Go's map order.
package streamd

import "sort"

// Names returns the counter names in a replay-stable order.
func Names(counters map[string]int) []string {
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names) // ci:mutate-sort
	return names
}

// Sorted reports whether names is in the order Names returns them.
func Sorted(names []string) bool { return sort.StringsAreSorted(names) }
