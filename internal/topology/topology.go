// Package topology models the tiled CMP's interconnect shapes and their
// deterministic routing. The paper's Table I machine is a 4x8 mesh (32
// tiles, one core + one L1 + one LLC bank per tile); the scaling work
// (DESIGN.md §13) generalizes the layer behind the Topology interface so
// the simulated machine can grow to 64–1024 tiles on a larger mesh, a
// torus (wraparound X-Y), or a concentrated mesh (several tiles per
// router) without the NoC caring which shape is underneath.
package topology

import "fmt"

// Link identifies a directed link between two adjacent tiles (for the
// concentrated mesh: between the representative tiles of adjacent routers).
type Link struct{ From, To int }

// Topology is the interconnect shape the NoC and the machine layer consume.
// Every implementation routes deterministically: the same (src, dst) pair
// always takes the same path, which the bit-for-bit replay guarantee
// depends on.
type Topology interface {
	// Tiles returns the number of tiles.
	Tiles() int
	// Hops returns the number of links a message from src to dst
	// traverses; Hops(src, dst) == len(Route(src, dst)) on every shape.
	Hops(src, dst int) int
	// Route returns the ordered links traversed from src to dst. An empty
	// route means src == dst or (concentrated mesh) the two tiles share a
	// router. The returned slice may be shared precomputed state and must
	// not be mutated; large machines compute it on demand, so hot paths
	// should prefer AppendRoute.
	Route(src, dst int) []Link
	// AppendRoute appends the route's links to buf and returns it — the
	// allocation-free variant for per-message routing on machines too
	// large for a precomputed route table.
	AppendRoute(buf []Link, src, dst int) []Link
	// NumLinks returns the number of distinct directed links, used to
	// normalize link-occupancy telemetry.
	NumLinks() int
	// Name identifies the shape ("mesh", "torus", "cmesh").
	Name() string
}

// RouteTableTiles bounds full route-table precomputation: a T-tile machine
// stores T^2 routes, so shapes beyond this fall back to computing routes on
// demand (the NoC applies the same bound to its link-index tables).
const RouteTableTiles = 256

// CMeshConc is the concentrated mesh's tiles per router.
const CMeshConc = 4

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

// New builds a topology of the given kind ("" is the Table I mesh) over
// tiles, on the router grid Grid derives.
func New(kind string, tiles int) (Topology, error) {
	w, h, conc, err := Grid(kind, tiles)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "torus":
		return NewTorus(w, h), nil
	case "cmesh":
		return NewCMesh(w, h, conc), nil
	}
	return NewMesh(w, h), nil
}

// --- Mesh ------------------------------------------------------------------

// Mesh is a W x H grid of tiles numbered row-major: tile = y*W + x.
type Mesh struct {
	W, H int
	// routes[src*Tiles+dst] is the precomputed X-Y route, shared by all
	// copies of the Mesh value. Callers must treat routes as read-only.
	// Nil on machines beyond RouteTableTiles (on-demand routing).
	routes [][]Link
}

// NewMesh validates the dimensions and returns the mesh. Small machines get
// their route table precomputed (routing is deterministic, so every
// (src, dst) pair always takes the same path); big ones route on demand.
func NewMesh(w, h int) Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", w, h))
	}
	m := Mesh{W: w, H: h}
	m.routes = precompute(m)
	return m
}

// precompute builds the full route table for a small topology, nil for one
// beyond the precomputation bound.
func precompute(t Topology) [][]Link {
	n := t.Tiles()
	if n > RouteTableTiles {
		return nil
	}
	routes := make([][]Link, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			routes[src*n+dst] = t.AppendRoute(nil, src, dst)
		}
	}
	return routes
}

// Name implements Topology.
func (m Mesh) Name() string { return "mesh" }

// Tiles returns the number of tiles.
func (m Mesh) Tiles() int { return m.W * m.H }

// XY returns the coordinates of a tile.
func (m Mesh) XY(tile int) (x, y int) { return tile % m.W, tile / m.W }

// Tile returns the tile at coordinates (x, y).
func (m Mesh) Tile(x, y int) int { return y*m.W + x }

// Hops returns the Manhattan distance between two tiles, which X-Y routing
// always achieves (it is minimal and deadlock-free on a mesh).
func (m Mesh) Hops(src, dst int) int {
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	return abs(sx-dx) + abs(sy-dy)
}

// NumLinks returns the number of distinct directed links: W*(H-1) vertical
// and H*(W-1) horizontal channels, each bidirectional.
func (m Mesh) NumLinks() int { return 2 * (m.W*(m.H-1) + m.H*(m.W-1)) }

// Route returns the X-Y route from src to dst (see Topology.Route).
func (m Mesh) Route(src, dst int) []Link {
	if m.routes != nil {
		return m.routes[src*m.Tiles()+dst]
	}
	return m.AppendRoute(nil, src, dst)
}

// AppendRoute implements Topology: dimension-ordered X-then-Y routing.
func (m Mesh) AppendRoute(buf []Link, src, dst int) []Link {
	if src == dst {
		return buf
	}
	sx, sy := m.XY(src)
	dx, dy := m.XY(dst)
	x, y := sx, sy
	for x != dx {
		nx := x + step(x, dx)
		buf = append(buf, Link{From: m.Tile(x, y), To: m.Tile(nx, y)})
		x = nx
	}
	for y != dy {
		ny := y + step(y, dy)
		buf = append(buf, Link{From: m.Tile(x, y), To: m.Tile(x, ny)})
		y = ny
	}
	return buf
}

// --- Torus -----------------------------------------------------------------

// Torus is a W x H grid with wraparound links in both dimensions, numbered
// row-major like the mesh. Routing is dimension-ordered (X then Y) taking
// the shorter way around each ring; a dead-even tie (ring length even,
// distance exactly half the ring) always resolves toward increasing
// coordinate — the deterministic dateline rule. The link-reservation NoC
// model has no credit-based buffering and therefore cannot deadlock; the
// dateline convention exists so the modeled routes match a deadlock-free
// two-VC dateline implementation and, more importantly here, so every
// (src, dst) pair routes identically on every run (DESIGN.md §13).
type Torus struct {
	W, H   int
	routes [][]Link
}

// NewTorus validates the dimensions and returns the torus.
func NewTorus(w, h int) Torus {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: invalid torus %dx%d", w, h))
	}
	t := Torus{W: w, H: h}
	t.routes = precompute(t)
	return t
}

// Name implements Topology.
func (t Torus) Name() string { return "torus" }

// Tiles returns the number of tiles.
func (t Torus) Tiles() int { return t.W * t.H }

// XY returns the coordinates of a tile.
func (t Torus) XY(tile int) (x, y int) { return tile % t.W, tile / t.W }

// Tile returns the tile at coordinates (x, y).
func (t Torus) Tile(x, y int) int { return y*t.W + x }

// ringDist returns the hop count and step direction (+1/-1) for the
// shorter way around a ring of length n from a to b, resolving dead-even
// ties toward +1 (the dateline rule).
func ringDist(a, b, n int) (dist, dir int) {
	if a == b {
		return 0, 1
	}
	fwd := ((b-a)%n + n) % n
	back := n - fwd
	if fwd <= back {
		return fwd, 1
	}
	return back, -1
}

// Hops returns the wraparound Manhattan distance, which dimension-ordered
// shortest-way routing achieves.
func (t Torus) Hops(src, dst int) int {
	sx, sy := t.XY(src)
	dx, dy := t.XY(dst)
	hx, _ := ringDist(sx, dx, t.W)
	hy, _ := ringDist(sy, dy, t.H)
	return hx + hy
}

// NumLinks returns the number of distinct directed links. A ring of length
// L contributes 2L directed links (L each way); length 2 degenerates to one
// bidirectional channel pair (the two directions collapse onto the same
// (from, to) identities), and length 1 contributes none.
func (t Torus) NumLinks() int { return t.H*ringLinks(t.W) + t.W*ringLinks(t.H) }

func ringLinks(l int) int {
	switch {
	case l < 2:
		return 0
	case l == 2:
		return 2
	}
	return 2 * l
}

// Route returns the dimension-ordered wraparound route (see Topology.Route).
func (t Torus) Route(src, dst int) []Link {
	if t.routes != nil {
		return t.routes[src*t.Tiles()+dst]
	}
	return t.AppendRoute(nil, src, dst)
}

// AppendRoute implements Topology: X then Y, each the shorter way around.
func (t Torus) AppendRoute(buf []Link, src, dst int) []Link {
	if src == dst {
		return buf
	}
	sx, sy := t.XY(src)
	dx, dy := t.XY(dst)
	x, y := sx, sy
	hx, dirX := ringDist(sx, dx, t.W)
	for i := 0; i < hx; i++ {
		nx := ((x+dirX)%t.W + t.W) % t.W
		buf = append(buf, Link{From: t.Tile(x, y), To: t.Tile(nx, y)})
		x = nx
	}
	hy, dirY := ringDist(sy, dy, t.H)
	for i := 0; i < hy; i++ {
		ny := ((y+dirY)%t.H + t.H) % t.H
		buf = append(buf, Link{From: t.Tile(x, y), To: t.Tile(x, ny)})
		y = ny
	}
	return buf
}

// --- Concentrated mesh -----------------------------------------------------

// CMesh is a concentrated mesh: a W x H router grid with Conc tiles sharing
// each router through a local crossbar. Tiles are numbered so tile t
// attaches to router t/Conc; inter-router links are identified by the
// routers' representative tiles (router r's first tile, r*Conc), so all
// tiles of a router contend for the same physical channels. Same-router
// messages take the crossbar (an empty route; the NoC charges its local
// latency), which is what makes concentration attractive at high tile
// counts — a 256-tile machine needs only an 8x8 router grid at Conc=4.
type CMesh struct {
	W, H, Conc int
	routes     [][]Link
}

// NewCMesh validates the dimensions and returns the concentrated mesh.
func NewCMesh(w, h, conc int) CMesh {
	if w <= 0 || h <= 0 || conc <= 0 {
		panic(fmt.Sprintf("topology: invalid cmesh %dx%dx%d", w, h, conc))
	}
	c := CMesh{W: w, H: h, Conc: conc}
	c.routes = precompute(c)
	return c
}

// Name implements Topology.
func (c CMesh) Name() string { return "cmesh" }

// Tiles returns the number of tiles.
func (c CMesh) Tiles() int { return c.W * c.H * c.Conc }

// Router returns the router a tile attaches to.
func (c CMesh) Router(tile int) int { return tile / c.Conc }

// repTile returns the representative tile of a router (link identities).
func (c CMesh) repTile(router int) int { return router * c.Conc }

// routerXY returns a router's grid coordinates.
func (c CMesh) routerXY(router int) (x, y int) { return router % c.W, router / c.W }

// Hops returns the router-grid Manhattan distance (0 for same-router tiles).
func (c CMesh) Hops(src, dst int) int {
	sx, sy := c.routerXY(c.Router(src))
	dx, dy := c.routerXY(c.Router(dst))
	return abs(sx-dx) + abs(sy-dy)
}

// NumLinks returns the router grid's distinct directed links.
func (c CMesh) NumLinks() int { return 2 * (c.W*(c.H-1) + c.H*(c.W-1)) }

// Route returns the router-grid X-Y route (see Topology.Route).
func (c CMesh) Route(src, dst int) []Link {
	if c.routes != nil {
		return c.routes[src*c.Tiles()+dst]
	}
	return c.AppendRoute(nil, src, dst)
}

// AppendRoute implements Topology: X-Y over the router grid, links between
// representative tiles.
func (c CMesh) AppendRoute(buf []Link, src, dst int) []Link {
	r1, r2 := c.Router(src), c.Router(dst)
	if r1 == r2 {
		return buf
	}
	sx, sy := c.routerXY(r1)
	dx, dy := c.routerXY(r2)
	x, y := sx, sy
	rep := func(x, y int) int { return c.repTile(y*c.W + x) }
	for x != dx {
		nx := x + step(x, dx)
		buf = append(buf, Link{From: rep(x, y), To: rep(nx, y)})
		x = nx
	}
	for y != dy {
		ny := y + step(y, dy)
		buf = append(buf, Link{From: rep(x, y), To: rep(x, ny)})
		y = ny
	}
	return buf
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func step(from, to int) int {
	if from < to {
		return 1
	}
	return -1
}
