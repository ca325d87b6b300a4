package percolation

// UnionFind is a classic disjoint-set forest with union by size and path
// compression, over the dense vertex universe [0, n). It backs exact
// component labeling of percolation samples.
type UnionFind struct {
	parent []uint64
	size   []uint64
	sets   uint64
	// largest is the size of the largest set. Sets only grow, so
	// tracking it in Union keeps it exact.
	largest uint64
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n uint64) *UnionFind {
	parent := make([]uint64, n)
	size := make([]uint64, n)
	for i := range parent {
		parent[i] = uint64(i)
		size[i] = 1
	}
	return &UnionFind{parent: parent, size: size, sets: n, largest: min(n, 1)}
}

// Len returns the size of the universe.
func (u *UnionFind) Len() uint64 { return uint64(len(u.parent)) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() uint64 { return u.sets }

// Find returns the representative of x's set.
func (u *UnionFind) Find(x uint64) uint64 {
	// Iterative two-pass path compression: find the root, then repoint
	// the chain. Avoids recursion on deep forests.
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

// Union merges the sets of x and y and reports whether a merge happened
// (false if they were already together).
func (u *UnionFind) Union(x, y uint64) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	u.size[rx] += u.size[ry]
	u.largest = max(u.largest, u.size[rx])
	u.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UnionFind) Same(x, y uint64) bool { return u.Find(x) == u.Find(y) }

// SizeOf returns the size of x's set.
func (u *UnionFind) SizeOf(x uint64) uint64 { return u.size[u.Find(x)] }
