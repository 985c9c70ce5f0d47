// Fixture for maporder's float-accumulation check: order-sensitive float
// accumulation inside a map range.
package floatsum

// Metrics stands in for the fingerprinted result struct.
type Metrics struct {
	Util float64
}

func meanUtil(byNode map[int]float64) float64 {
	var sum float64
	for _, u := range byNode {
		sum += u // want `float accumulation into sum inside range over map`
	}
	return sum / float64(len(byNode))
}

func intoField(m *Metrics, byNode map[int]float64) {
	for _, u := range byNode {
		m.Util += u // want `float accumulation into m\.Util inside range over map`
	}
}

// A sum inside nested map ranges is reported once, by the inner range.
func nested(byNode map[int]map[int]float64) float64 {
	var sum float64
	for _, inner := range byNode {
		for _, u := range inner {
			sum += u // want `float accumulation into sum inside range over map`
		}
	}
	return sum
}

// Integer accumulation commutes exactly: no diagnostic.
func totalInt(byNode map[int]int) int {
	total := 0
	for _, n := range byNode {
		total += n
	}
	return total
}

// Slice iteration is deterministic: no diagnostic.
func sumSlice(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

func suppressed(byNode map[int]float64) float64 {
	var sum float64
	for _, u := range byNode {
		sum += u //lint:allow maporder values are exact powers of two, addition commutes
	}
	return sum
}
