// Package topology models the tiled CMP's interconnect shape and its
// deterministic routing. The paper's Table I machine is a 4x8 mesh (32
// tiles, one core + one L1 + one LLC bank per tile); the scaling work
// (DESIGN.md §13) grows it to 64–1024 tiles on a larger mesh, a torus
// (wraparound X-Y), or a concentrated mesh (several tiles per router). All
// three are one router grid: a mesh is a concentrated mesh with one tile per
// router, and a torus is a mesh whose rows and columns wrap.
package topology

import "fmt"

// Link identifies a directed link between two adjacent routers, each named
// by its first tile.
type Link struct{ From, To int }

// CMeshConc is the concentrated mesh's tiles per router.
const CMeshConc = 4

// Topology is a W x H grid of routers numbered row-major, with Conc tiles
// on each: tile t attaches to router t/Conc. Routing is dimension-ordered,
// X then Y, so the same (src, dst) pair always takes the same path, which
// the bit-for-bit replay guarantee depends on. Tiles of one router share its
// links, so same-router pairs route over zero links (the NoC charges its
// local crossbar latency) — what makes concentration attractive at high
// tile counts.
//
// Wrap closes every row and column into a ring (a torus). Each ring is
// taken the shorter way around; a dead-even tie (ring length even, distance
// exactly half the ring) always resolves toward increasing coordinate — the
// deterministic dateline rule. The link-reservation NoC model has no
// credit-based buffering and therefore cannot deadlock; the dateline
// convention exists so the modeled routes match a deadlock-free two-VC
// dateline implementation and, more importantly here, so every (src, dst)
// pair routes identically on every run (DESIGN.md §13).
type Topology struct {
	W, H, Conc int
	Wrap       bool
}

// Grid derives the router grid a kind of topology lays over tiles: the
// most-square W×H factorization with W ≤ H of the routers — one per tile on
// a mesh or torus, one per CMeshConc tiles on a cmesh. That matches Table
// I's 4x8 mesh at 32 tiles and gives 64→8x8, 128→8x16, 256→16x16,
// 512→16x32 and 1024→32x32. conc is the tiles per router.
func Grid(kind string, tiles int) (w, h, conc int, err error) {
	conc = 1
	switch kind {
	case "", "mesh", "torus":
	case "cmesh":
		conc = CMeshConc
	default:
		return 0, 0, 0, fmt.Errorf("topology: unknown kind %q (want mesh, torus, or cmesh)", kind)
	}
	if tiles <= 0 {
		return 0, 0, 0, fmt.Errorf("topology: invalid tile count %d", tiles)
	}
	if tiles%conc != 0 {
		return 0, 0, 0, fmt.Errorf("topology: %d tiles do not fill cmesh routers of %d tiles", tiles, conc)
	}
	routers := tiles / conc
	w = 1
	for d := 1; d*d <= routers; d++ {
		if routers%d == 0 {
			w = d
		}
	}
	return w, routers / w, conc, nil
}

// New returns the topology of the given kind ("" is the Table I mesh) over
// tiles, on the router grid Grid derives.
func New(kind string, tiles int) (Topology, error) {
	w, h, conc, err := Grid(kind, tiles)
	if err != nil {
		return Topology{}, err
	}
	return Topology{W: w, H: h, Conc: conc, Wrap: kind == "torus"}, nil
}

// Tiles returns the number of tiles.
func (t Topology) Tiles() int { return t.W * t.H * t.Conc }

// xy returns the grid coordinates of a tile's router.
func (t Topology) xy(tile int) (x, y int) {
	r := tile / t.Conc
	return r % t.W, r / t.W
}

// tile returns the first tile of the router at (x, y), which names the
// router's links.
func (t Topology) tile(x, y int) int { return (y*t.W + x) * t.Conc }

// dist returns the hop count and step direction (+1/-1) from coordinate a
// to b along a dimension of length n: straight on a mesh, the shorter way
// around the ring when Wrap is set, with dead-even ties toward +1 (the
// dateline rule).
func (t Topology) dist(a, b, n int) (hops, dir int) {
	fwd := b - a
	if t.Wrap {
		fwd = ((b-a)%n + n) % n
		if back := n - fwd; back < fwd {
			return back, -1
		}
	}
	if fwd < 0 {
		return -fwd, -1
	}
	return fwd, 1
}

// Hops returns the number of links a message from src to dst traverses:
// the router-grid Manhattan distance, wraparound when Wrap is set, which
// dimension-ordered routing always achieves. Hops(src, dst) ==
// len(AppendRoute(nil, src, dst)).
func (t Topology) Hops(src, dst int) int {
	sx, sy := t.xy(src)
	dx, dy := t.xy(dst)
	hx, _ := t.dist(sx, dx, t.W)
	hy, _ := t.dist(sy, dy, t.H)
	return hx + hy
}

// NumLinks returns the number of distinct directed links, used to normalize
// link-occupancy telemetry. A mesh row or column of L routers has L-1
// bidirectional channels. A ring of length L has 2L directed links (L each
// way); length 2 degenerates to one bidirectional channel pair (the two
// directions collapse onto the same (from, to) identities), and length 1
// has none.
func (t Topology) NumLinks() int {
	if !t.Wrap {
		return 2 * (t.W*(t.H-1) + t.H*(t.W-1))
	}
	return t.H*ringLinks(t.W) + t.W*ringLinks(t.H)
}

func ringLinks(l int) int {
	switch {
	case l < 2:
		return 0
	case l == 2:
		return 2
	}
	return 2 * l
}

// AppendRoute appends the ordered links from src to dst to buf and returns
// it: X then Y over the router grid, each dimension the way dist takes it.
// Nothing is appended when src and dst share a router.
func (t Topology) AppendRoute(buf []Link, src, dst int) []Link {
	sx, sy := t.xy(src)
	dx, dy := t.xy(dst)
	x, y := sx, sy
	hx, dirX := t.dist(sx, dx, t.W)
	for i := 0; i < hx; i++ {
		nx := (x + dirX + t.W) % t.W
		buf = append(buf, Link{From: t.tile(x, y), To: t.tile(nx, y)})
		x = nx
	}
	hy, dirY := t.dist(sy, dy, t.H)
	for i := 0; i < hy; i++ {
		ny := (y + dirY + t.H) % t.H
		buf = append(buf, Link{From: t.tile(x, y), To: t.tile(x, ny)})
		y = ny
	}
	return buf
}
