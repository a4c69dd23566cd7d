package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mesh48 is Table I's 4x8 mesh.
var mesh48 = Topology{W: 4, H: 8, Conc: 1}

func TestXYRoundTrip(t *testing.T) {
	for _, topo := range []Topology{mesh48, {W: 3, H: 2, Conc: 4}} {
		for tile := 0; tile < topo.Tiles(); tile++ {
			x, y := topo.XY(tile)
			if got, want := topo.tile(x, y), tile-tile%topo.Conc; got != want {
				t.Fatalf("%+v: tile %d round-trips to %d, want its router's first tile %d", topo, tile, got, want)
			}
		}
	}
}

func TestRouteLengthEqualsHops(t *testing.T) {
	m := mesh48
	if err := quick.Check(func(a, b uint8) bool {
		src := int(a) % m.Tiles()
		dst := int(b) % m.Tiles()
		return len(m.AppendRoute(nil, src, dst)) == m.Hops(src, dst)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteContiguousAdjacent(t *testing.T) {
	m := mesh48
	for src := 0; src < m.Tiles(); src++ {
		for dst := 0; dst < m.Tiles(); dst++ {
			r := m.AppendRoute(nil, src, dst)
			cur := src
			for _, l := range r {
				if l.From != cur {
					t.Fatalf("route %d->%d not contiguous: %v", src, dst, r)
				}
				if m.Hops(l.From, l.To) != 1 {
					t.Fatalf("route %d->%d uses non-adjacent link %v", src, dst, l)
				}
				cur = l.To
			}
			if cur != dst {
				t.Fatalf("route %d->%d ends at %d", src, dst, cur)
			}
		}
	}
}

func TestRouteXBeforeY(t *testing.T) {
	m := mesh48
	r := m.AppendRoute(nil, m.tile(0, 0), m.tile(3, 2))
	// First 3 links must move in X, the rest in Y.
	for i, l := range r {
		fx, fy := m.XY(l.From)
		tx, ty := m.XY(l.To)
		if i < 3 {
			if fy != ty || fx == tx {
				t.Fatalf("link %d should be an X move: %v", i, l)
			}
		} else {
			if fx != tx || fy == ty {
				t.Fatalf("link %d should be a Y move: %v", i, l)
			}
		}
	}
}

func TestRouteSelf(t *testing.T) {
	m := mesh48
	if len(m.AppendRoute(nil, 5, 5)) != 0 {
		t.Fatal("self route should be empty")
	}
	if m.Hops(5, 5) != 0 {
		t.Fatal("self hops should be 0")
	}
}

func TestNewFactory(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want Topology
	}{
		{"", mesh48}, {"mesh", mesh48}, {"torus", Topology{W: 4, H: 8, Conc: 1, Wrap: true}},
		{"cmesh", Topology{W: 2, H: 4, Conc: CMeshConc}},
	} {
		topo, err := New(tc.kind, 32)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.kind, err)
		}
		if topo != tc.want || topo.Tiles() != 32 {
			t.Fatalf("New(%q) = %+v with %d tiles, want %+v with 32", tc.kind, topo, topo.Tiles(), tc.want)
		}
	}
	if _, err := New("hypercube", 32); err == nil {
		t.Fatal("expected error for unknown topology kind")
	}
}

// TestGrid pins the derived router grids of the scaling sweep (DESIGN.md
// §13) and the shapes no grid fits.
func TestGrid(t *testing.T) {
	cases := []struct {
		kind          string
		n, w, h, conc int
	}{
		{"", 8, 2, 4, 1}, {"mesh", 32, 4, 8, 1}, {"", 64, 8, 8, 1}, {"torus", 128, 8, 16, 1},
		{"", 256, 16, 16, 1}, {"", 512, 16, 32, 1}, {"", 1024, 32, 32, 1},
		{"cmesh", 32, 2, 4, CMeshConc}, {"cmesh", 256, 8, 8, CMeshConc},
	}
	for _, c := range cases {
		w, h, conc, err := Grid(c.kind, c.n)
		if err != nil || w != c.w || h != c.h || conc != c.conc {
			t.Errorf("Grid(%q, %d) = %dx%d conc %d (%v), want %dx%d conc %d",
				c.kind, c.n, w, h, conc, err, c.w, c.h, c.conc)
		}
	}
	for _, bad := range []struct {
		kind string
		n    int
	}{{"", 0}, {"torus", -4}, {"cmesh", 30}, {"ring", 32}} {
		if _, _, _, err := Grid(bad.kind, bad.n); err == nil {
			t.Errorf("Grid(%q, %d) succeeded, want an error", bad.kind, bad.n)
		}
	}
}

// checkRoute validates the universal route properties on any shape: the
// route is contiguous from src's router region to dst's, every link spans
// exactly one hop, Hops(src,dst) == len(AppendRoute(nil, src, dst)), a
// non-empty buf is extended rather than overwritten, and hops are
// symmetric.
func checkRoute(t *testing.T, topo Topology, src, dst int) {
	t.Helper()
	r := topo.AppendRoute(nil, src, dst)
	if len(r) != topo.Hops(src, dst) {
		t.Fatalf("%+v %d->%d: len(AppendRoute)=%d != Hops=%d", topo, src, dst, len(r), topo.Hops(src, dst))
	}
	if topo.Hops(src, dst) != topo.Hops(dst, src) {
		t.Fatalf("%+v: Hops(%d,%d)=%d asymmetric with Hops(%d,%d)=%d",
			topo, src, dst, topo.Hops(src, dst), dst, src, topo.Hops(dst, src))
	}
	prefix := Link{From: -1, To: -1}
	ar := topo.AppendRoute([]Link{prefix}, src, dst)
	if len(ar) != len(r)+1 || ar[0] != prefix {
		t.Fatalf("%+v %d->%d: AppendRoute onto a prefix gave %v, want %v after it", topo, src, dst, ar, r)
	}
	for i := range r {
		if r[i] != ar[i+1] {
			t.Fatalf("%+v %d->%d: AppendRoute onto a prefix disagrees at %d: %v vs %v", topo, src, dst, i, ar[i+1], r[i])
		}
	}
	if len(r) == 0 {
		if topo.Hops(src, dst) != 0 {
			t.Fatalf("%+v %d->%d: empty route but %d hops", topo, src, dst, topo.Hops(src, dst))
		}
		return
	}
	// Contiguity over link endpoints; each link must be a single hop.
	for i, l := range r {
		if i > 0 && r[i-1].To != l.From {
			t.Fatalf("%+v %d->%d: route not contiguous at %d: %v", topo, src, dst, i, r)
		}
		if topo.Hops(l.From, l.To) != 1 {
			t.Fatalf("%+v %d->%d: link %v spans %d hops", topo, src, dst, l, topo.Hops(l.From, l.To))
		}
	}
	// Endpoints: first link leaves src's zero-hop region, last enters dst's.
	if topo.Hops(src, r[0].From) != 0 {
		t.Fatalf("%+v %d->%d: route starts at %d, not at src's router", topo, src, dst, r[0].From)
	}
	if topo.Hops(dst, r[len(r)-1].To) != 0 {
		t.Fatalf("%+v %d->%d: route ends at %d, not at dst's router", topo, src, dst, r[len(r)-1].To)
	}
}

// checkAllRoutes runs checkRoute over all pairs of a small shape, or a
// seeded random sample of a big one.
func checkAllRoutes(t *testing.T, topo Topology, rng *rand.Rand) {
	t.Helper()
	n := topo.Tiles()
	if n <= 64 {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				checkRoute(t, topo, src, dst)
			}
		}
		return
	}
	for i := 0; i < 512; i++ {
		checkRoute(t, topo, rng.Intn(n), rng.Intn(n))
	}
}

func TestRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8)) // deterministic: same shapes every run
	for i := 0; i < 40; i++ {
		w := 1 + rng.Intn(32)
		h := 1 + rng.Intn(32)
		conc := 1 + rng.Intn(4)
		for _, topo := range []Topology{
			{W: w, H: h, Conc: 1}, {W: w, H: h, Conc: 1, Wrap: true}, {W: w, H: h, Conc: conc},
		} {
			checkAllRoutes(t, topo, rng)
		}
	}
}

func TestMeshMinimality(t *testing.T) {
	// X-Y routing on a mesh is minimal: Hops is exactly the Manhattan
	// distance, checked against a BFS oracle over the adjacency relation.
	for _, dims := range [][2]int{{4, 8}, {8, 8}, {16, 16}, {1, 7}, {5, 1}} {
		m := Topology{W: dims[0], H: dims[1], Conc: 1}
		bfs := bfsDistances(m, 0)
		for dst := 0; dst < m.Tiles(); dst++ {
			if m.Hops(0, dst) != bfs[dst] {
				t.Fatalf("mesh %dx%d: Hops(0,%d)=%d, BFS says %d",
					dims[0], dims[1], dst, m.Hops(0, dst), bfs[dst])
			}
		}
	}
}

func TestTorusMinimality(t *testing.T) {
	for _, dims := range [][2]int{{4, 8}, {8, 8}, {5, 5}, {2, 6}, {1, 8}} {
		tr := Topology{W: dims[0], H: dims[1], Conc: 1, Wrap: true}
		bfs := bfsDistances(tr, 0)
		for dst := 0; dst < tr.Tiles(); dst++ {
			if tr.Hops(0, dst) != bfs[dst] {
				t.Fatalf("torus %dx%d: Hops(0,%d)=%d, BFS says %d",
					dims[0], dims[1], dst, tr.Hops(0, dst), bfs[dst])
			}
		}
	}
}

// bfsDistances computes single-source shortest hop counts using only the
// shape's own one-hop relation, as an oracle independent of Hops' formula.
func bfsDistances(topo Topology, src int) []int {
	n := topo.Tiles()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := 0; next < n; next++ {
			if dist[next] < 0 && topo.Hops(cur, next) == 1 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

func TestTorusWraparound(t *testing.T) {
	tr := Topology{W: 8, H: 4, Conc: 1, Wrap: true}
	// Opposite edge columns are one hop apart through the wraparound link.
	if got := tr.Hops(tr.tile(0, 0), tr.tile(7, 0)); got != 1 {
		t.Fatalf("torus x-wraparound: Hops=%d, want 1", got)
	}
	if got := tr.Hops(tr.tile(0, 0), tr.tile(0, 3)); got != 1 {
		t.Fatalf("torus y-wraparound: Hops=%d, want 1", got)
	}
	r := tr.AppendRoute(nil, tr.tile(0, 0), tr.tile(7, 0))
	if len(r) != 1 || r[0] != (Link{From: tr.tile(0, 0), To: tr.tile(7, 0)}) {
		t.Fatalf("torus wraparound route: %v", r)
	}
	// Torus halves the worst-case distance relative to a mesh of the same
	// dimensions.
	m := Topology{W: 8, H: 4, Conc: 1}
	if tr.Hops(0, tr.Tiles()-1) >= m.Hops(0, m.Tiles()-1) {
		t.Fatalf("torus corner distance %d not shorter than mesh %d",
			tr.Hops(0, tr.Tiles()-1), m.Hops(0, m.Tiles()-1))
	}
}

func TestTorusDatelineTieBreak(t *testing.T) {
	// On an even ring the halfway distance has two equally short ways
	// around; the dateline rule resolves it toward increasing coordinate,
	// so the first link must step from x to x+1.
	tr := Topology{W: 8, H: 1, Conc: 1, Wrap: true}
	r := tr.AppendRoute(nil, tr.tile(1, 0), tr.tile(5, 0)) // distance 4 both ways
	if len(r) != 4 {
		t.Fatalf("halfway route length %d, want 4", len(r))
	}
	if r[0] != (Link{From: tr.tile(1, 0), To: tr.tile(2, 0)}) {
		t.Fatalf("dateline tie must resolve toward +x: %v", r[0])
	}
}

func TestCMeshSameRouter(t *testing.T) {
	c := Topology{W: 4, H: 4, Conc: 4} // 64 tiles, 16 routers
	if c.Tiles() != 64 {
		t.Fatalf("cmesh tiles = %d, want 64", c.Tiles())
	}
	// Tiles 0..3 share router 0: zero hops, empty route.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if c.Hops(a, b) != 0 {
				t.Fatalf("same-router tiles %d,%d: Hops=%d", a, b, c.Hops(a, b))
			}
			if len(c.AppendRoute(nil, a, b)) != 0 {
				t.Fatalf("same-router tiles %d,%d: non-empty route", a, b)
			}
		}
	}
	// Tiles on adjacent routers are one hop apart regardless of which tile
	// of the router they are.
	if got := c.Hops(3, 4); got != 1 {
		t.Fatalf("adjacent-router tiles: Hops=%d, want 1", got)
	}
}

func TestNumLinksMatchesEnumeration(t *testing.T) {
	// NumLinks must equal the number of distinct directed links that appear
	// across all routes of the shape.
	for _, topo := range []Topology{
		mesh48, {W: 1, H: 6, Conc: 1}, {W: 4, H: 4, Conc: 1, Wrap: true}, {W: 2, H: 5, Conc: 1, Wrap: true},
		{W: 1, H: 4, Conc: 1, Wrap: true}, {W: 3, H: 3, Conc: 2}, {W: 4, H: 2, Conc: 4},
	} {
		seen := map[Link]bool{}
		n := topo.Tiles()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for _, l := range topo.AppendRoute(nil, src, dst) {
					seen[l] = true
				}
			}
		}
		if len(seen) != topo.NumLinks() {
			t.Fatalf("%+v: NumLinks=%d but routes use %d distinct links",
				topo, topo.NumLinks(), len(seen))
		}
	}
}
