package core

import "math"

// Feasibility thresholds for the capacity search: a configuration "keeps
// up" when achieved throughput is close to offered and response times stay
// within the (scaled) TPC-C-style bound.
const (
	feasibleTpmCFraction = 0.85
	feasibleRespMsScaled = 8000 // 8 s scaled = 80 ms unscaled at scale 100
	tpmCPerWarehouse     = 12.5
)

// CapacityResult reports a capacity search outcome.
type CapacityResult struct {
	Metrics    Metrics
	Warehouses int
	Feasible   bool // false when even the smallest configuration thrashed
}

// MeasureCapacity finds the largest TPC-C configuration the cluster
// sustains and returns its metrics. TPC-C couples database size to
// throughput (≈12.5 tpm-C per warehouse), so "throughput at N nodes" is the
// largest warehouse population whose offered load the cluster still serves
// with healthy response times — the paper's scaling experiments follow this
// self-sizing rule (§2.2). The search is a binary search over warehouses
// per node (1..maxPerNode), each probe being a deterministic full run.
// A probe that fails outright (construction or mid-run error) is treated
// as infeasible.
func MeasureCapacity(p Params, maxPerNode int) CapacityResult {
	return SearchCapacity(p, maxPerNode, Run, nil)
}

// SearchCapacity is MeasureCapacity with pluggable probe execution. It runs
// the same bisection over warehouses per node in [1, maxPerNode]; probe is
// called for every candidate the search visits, in bisection order, and must
// behave as a pure, deterministic function of its Params. Before each probe,
// speculate (when non-nil) receives the candidate configurations the search
// may visit next — one for each branch of the pending feasibility decision —
// so a parallel search can start warming them while the current probe runs;
// speculate must not block. Because the visited path depends only on probe
// outcomes, any probe that agrees with sequential Run yields a
// byte-identical CapacityResult.
func SearchCapacity(p Params, maxPerNode int, probe func(Params) (Metrics, error), speculate func(...Params)) CapacityResult {
	if maxPerNode <= 0 {
		maxPerNode = 48
	}
	candidate := func(lo, hi int) (Params, bool) {
		if lo > hi {
			return Params{}, false
		}
		q := p
		q.Warehouses = (lo + hi) / 2 * p.Nodes
		return q, true
	}
	lo, hi := 1, maxPerNode
	var best Metrics
	bestW := 0
	found := false
	for lo <= hi {
		mid := (lo + hi) / 2
		q := p
		q.Warehouses = mid * p.Nodes
		if speculate != nil {
			// The two configurations the next iteration probes, depending on
			// whether mid turns out feasible (search moves up) or not (down).
			next := make([]Params, 0, 2)
			if c, ok := candidate(mid+1, hi); ok {
				next = append(next, c)
			}
			if c, ok := candidate(lo, mid-1); ok {
				next = append(next, c)
			}
			speculate(next...)
		}
		m, err := probe(q)
		if err != nil {
			hi = mid - 1
			continue
		}
		if feasible(m, q.Warehouses) {
			best, bestW, found = m, q.Warehouses, true
			lo = mid + 1
		} else {
			if !found {
				// Track the latest undersized-but-infeasible probe so a fully
				// saturated cluster still reports its (degraded) plateau.
				best, bestW = m, q.Warehouses
			}
			hi = mid - 1
		}
	}
	return CapacityResult{Metrics: best, Warehouses: bestW, Feasible: found}
}

// feasible applies the keep-up criteria.
func feasible(m Metrics, warehouses int) bool {
	offered := tpmCPerWarehouse * float64(warehouses)
	return m.TpmC >= feasibleTpmCFraction*offered && m.RespTimeMs <= feasibleRespMsScaled
}

// SqrtGrowthWarehouses applies Fig 10's rule to a linear-rule warehouse
// count: TPC-C sizing up to 90 K tpm-C (7200 warehouses unscaled, 72
// scaled), then warehouses grow with the square root of the additional
// throughput.
func SqrtGrowthWarehouses(linear int) int {
	const knee = 72
	if linear <= knee {
		return linear
	}
	return knee + int(math.Sqrt(20*float64(linear-knee)))
}
