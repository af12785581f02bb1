package fleet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
)

// RouterKind selects how the shared stream partitions across nodes.
type RouterKind string

// The two deterministic routers.
const (
	// RouterHash routes by consistent hashing over node IDs: each node
	// owns weight-proportional virtual points on a ring and a request
	// maps to the successor of its key. Adding a node only moves the
	// requests that land on the new node's points — the stability
	// property that makes hash routing the fleet-scaling default.
	RouterHash RouterKind = "hash"
	// RouterWRR routes by smooth weighted round-robin in arrival
	// order: perfectly proportional load, no affinity.
	RouterWRR RouterKind = "wrr"
)

// ParseRouter resolves a router name.
func ParseRouter(s string) (RouterKind, error) {
	switch RouterKind(s) {
	case RouterHash, RouterWRR:
		return RouterKind(s), nil
	case "":
		return RouterHash, nil
	}
	return "", fmt.Errorf("fleet: unknown router %q (want %q or %q)", s, RouterHash, RouterWRR)
}

// vnodesPerWeight is the ring density: virtual points per unit of node
// weight. High enough that load variance across equal-weight nodes
// stays small, low enough that a 256-node ring builds instantly.
const vnodesPerWeight = 40

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// buildRing places weight-proportional virtual points for each node.
// Point hashes depend only on (node, replica), so a ring for n+1 nodes
// is a superset of the ring for n nodes — the stability guarantee.
func buildRing(weights []int) []ringPoint {
	points := 0
	for _, w := range weights {
		points += w * vnodesPerWeight
	}
	ring := make([]ringPoint, 0, points)
	var buf [16]byte
	h := fnv.New64a()
	for node, w := range weights {
		for r := 0; r < w*vnodesPerWeight; r++ {
			binary.LittleEndian.PutUint64(buf[:8], uint64(node))
			binary.LittleEndian.PutUint64(buf[8:], uint64(r))
			h.Reset()
			h.Write(buf[:])
			ring = append(ring, ringPoint{hash: h.Sum64(), node: node})
		}
	}
	slices.SortFunc(ring, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	return ring
}

// splitmix64 is the request-key mixer: sequential request IDs must
// spread uniformly over the ring.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Assign maps each request to a node index. weights must have one
// entry per node (the node's template weight). The assignment is a
// pure function of (kind, weights, request IDs) — independent of
// worker count and of how the caller later groups the result.
func Assign(kind RouterKind, weights []int, reqs []Request) []int {
	out := make([]int, len(reqs))
	switch kind {
	case RouterWRR:
		total := 0
		for _, w := range weights {
			total += w
		}
		cur := make([]int, len(weights))
		for i := range reqs {
			best := 0
			for j, w := range weights {
				cur[j] += w
				if cur[j] > cur[best] {
					best = j
				}
			}
			cur[best] -= total
			out[i] = best
		}
	default: // RouterHash
		ring := buildRing(weights)
		for i, r := range reqs {
			key := splitmix64(uint64(r.ID) + 1)
			k, _ := slices.BinarySearchFunc(ring, key, func(p ringPoint, key uint64) int { return cmp.Compare(p.hash, key) })
			if k == len(ring) {
				k = 0
			}
			out[i] = ring[k].node
		}
	}
	return out
}

// Split groups the shared stream into per-node sub-streams, preserving
// arrival order within each node. The sub-streams are carved from one
// backing array, each sized to its node's count.
func Split(reqs []Request, assign []int, nodes int) [][]Request {
	counts := make([]int, nodes)
	for _, n := range assign {
		counts[n]++
	}
	backing := make([]Request, len(reqs))
	out := make([][]Request, nodes)
	off := 0
	for n, c := range counts {
		if c > 0 {
			out[n] = backing[off : off : off+c]
		}
		off += c
	}
	for i, r := range reqs {
		out[assign[i]] = append(out[assign[i]], r)
	}
	return out
}
