// Fixture for the maporder analyzer: order-sensitive work inside map ranges.
package maporder

import (
	"fmt"
	"io"
	"sim"
	"sort"
)

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}

// collectThenSort is the sanctioned idiom: the append is cleared by the
// later sort in the same function.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printInOrder(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `printing inside range over map`
	}
}

// schedule: sim.Sim's At, After and Spawn in map order reorder the event
// calendar; sim.Queue's At shares the name but only reads a slot.
func schedule(s *sim.Sim, q *sim.Queue[int], m map[string]int) int {
	n := 0
	for range m {
		s.At(1, func() {})               // want `scheduling simulator events inside range over map`
		s.After(1, func() {})            // want `scheduling simulator events inside range over map`
		s.Spawn("p", func(*sim.Proc) {}) // want `scheduling simulator events inside range over map`
		n += *q.At(0)
	}
	return n
}

// counting is commutative: no diagnostic.
func count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// localAppend stays inside the loop iteration: no diagnostic.
func localPerKey(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

func suppressed(w io.Writer, m map[string]int) {
	for k := range m {
		//lint:allow maporder output order is covered by an external sort in the consumer
		fmt.Fprintln(w, k)
	}
}
