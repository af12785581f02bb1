// Package graph provides the graph substrate for the paper's
// data-dependent workloads (BFS, PageRank, SSSP on GAP-Kron): a Kronecker
// (R-MAT) edge generator in the style of the GAP benchmark suite, CSR
// construction, and reference host-side implementations of the three
// algorithms used both for correctness checks and to drive the page
// access generators.
package graph

import (
	"cmp"
	"math/rand"
	"slices"
)

// RMAT partition probabilities used by GAP-Kron.
const (
	rmatA = 0.57
	rmatB = 0.19
	rmatC = 0.19
)

// Edge is a directed edge with a small integer weight (SSSP).
type Edge struct {
	Src, Dst int32
	Weight   int32
}

// GenerateKron produces an R-MAT/Kronecker edge list with 2^scale
// vertices and edgeFactor*2^scale edges, deterministically from seed.
// Self-loops are permitted (as in GAP); duplicate edges are kept, which
// preserves the skewed degree distribution.
func GenerateKron(scale, edgeFactor int, seed int64) []Edge {
	if scale < 1 || scale > 30 {
		panic("graph: scale out of range")
	}
	n := int32(1) << scale
	m := int(n) * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		var src, dst int32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < rmatA:
				// top-left: neither bit set
			case r < rmatA+rmatB:
				dst |= 1 << bit
			case r < rmatA+rmatB+rmatC:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = Edge{Src: src, Dst: dst, Weight: int32(rng.Intn(64) + 1)}
	}
	return edges
}

// CSR is a compressed sparse row adjacency structure.
type CSR struct {
	N       int32
	Offsets []int64 // len N+1
	Dst     []int32 // len M
	Weight  []int32 // len M
}

// BuildCSR sorts edges by source and builds the CSR arrays.
func BuildCSR(n int32, edges []Edge) *CSR {
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	// slices.SortFunc runs the same pdqsort as sort.Slice with the same
	// comparator, so the permutation — ties between duplicate edges
	// included — is unchanged; it only skips the reflection-based swaps.
	slices.SortFunc(sorted, func(a, b Edge) int {
		if c := cmp.Compare(a.Src, b.Src); c != 0 {
			return c
		}
		return cmp.Compare(a.Dst, b.Dst)
	})
	c := &CSR{
		N:       n,
		Offsets: make([]int64, n+1),
		Dst:     make([]int32, len(sorted)),
		Weight:  make([]int32, len(sorted)),
	}
	for i, e := range sorted {
		c.Offsets[e.Src+1]++
		c.Dst[i] = e.Dst
		c.Weight[i] = e.Weight
	}
	for v := int32(1); v <= n; v++ {
		c.Offsets[v] += c.Offsets[v-1]
	}
	return c
}

// M reports the edge count.
func (c *CSR) M() int { return len(c.Dst) }

// Degree reports vertex v's out-degree.
func (c *CSR) Degree(v int32) int64 { return c.Offsets[v+1] - c.Offsets[v] }

// Neighbors reports the destination slice for v.
func (c *CSR) Neighbors(v int32) []int32 {
	return c.Dst[c.Offsets[v]:c.Offsets[v+1]]
}

// Unreached marks vertices BFS/SSSP never reached.
const Unreached = int32(-1)

// BFS returns per-vertex levels from src (Unreached where unreachable).
func BFS(c *CSR, src int32) []int32 {
	level := make([]int32, c.N)
	for i := range level {
		level[i] = Unreached
	}
	level[src] = 0
	frontier := []int32{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range c.Neighbors(v) {
				if level[w] == Unreached {
					level[w] = depth
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return level
}

// PageRank runs iters rounds of synchronous PageRank with the given
// damping factor and returns the final scores.
func PageRank(c *CSR, iters int, damping float64) []float64 {
	n := int(c.N)
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	base := (1 - damping) / float64(n)
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = base
		}
		for v := int32(0); v < c.N; v++ {
			d := c.Degree(v)
			if d == 0 {
				continue
			}
			share := damping * rank[v] / float64(d)
			for _, w := range c.Neighbors(v) {
				next[w] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}

// SSSP runs frontier-based Bellman-Ford from src and returns distances
// (Unreached encoded as a negative value in the int64 result).
func SSSP(c *CSR, src int32) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, c.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	frontier := []int32{src}
	inFrontier := make([]bool, c.N)
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			inFrontier[v] = false
			off := c.Offsets[v]
			for i, w := range c.Neighbors(v) {
				nd := dist[v] + int64(c.Weight[off+int64(i)])
				if nd < dist[w] {
					dist[w] = nd
					if !inFrontier[w] {
						inFrontier[w] = true
						next = append(next, w)
					}
				}
			}
		}
		frontier = next
	}
	for i, d := range dist {
		if d == inf {
			dist[i] = -1
		}
	}
	return dist
}
