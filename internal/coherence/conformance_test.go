package coherence

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/priority"
)

// The conformance suite enumerates the conflict matrix of paper Fig. 4:
// for each (owner access, owner mode, requester access, requester mode,
// relative priority, system) combination, exactly one of three outcomes
// must occur: the request is served (no conflict), the owner aborts
// (requester wins), or the request is rejected (owner wins).

type outcome int

const (
	served outcome = iota // request completes; owner survives
	ownerAborts
	requestRejected // request parks; owner survives
)

func (o outcome) String() string {
	return [...]string{"served", "owner-aborts", "request-rejected"}[o]
}

type confCase struct {
	name string
	cfg  htm.Config
	// Owner setup.
	ownerMode  htm.Mode // HTM or TL
	ownerWrite bool     // owner wrote (vs read) the line
	ownerPrio  uint64   // InstsRetired granted to the owner (HTM only)
	// Request.
	reqTx    bool // requester inside an HTM transaction
	reqWrite bool
	reqPrio  uint64
	want     outcome
}

func runConfCase(t *testing.T, c confCase) {
	t.Helper()
	e, sys, cl := tsys(t, c.cfg)
	const line = mem.Line(4096)

	// Owner setup.
	switch c.ownerMode {
	case htm.HTM:
		sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
	case htm.TL:
		enterTL(t, sys, 0)
	default:
		t.Fatalf("unsupported owner mode %v", c.ownerMode)
	}
	access(t, e, sys, 0, line, c.ownerWrite)
	drain(e)
	if c.ownerMode == htm.HTM {
		sys.L1s[0].Tx.InstsRetired = c.ownerPrio
	}

	// Request.
	if c.reqTx {
		sys.L1s[1].Tx.BeginAttempt(htm.HTM, e.Now())
		sys.L1s[1].Tx.InstsRetired = c.reqPrio
	}
	done := tryAccess(e, sys, 1, line, c.reqWrite)
	for i := 0; i < 3000 && !*done; i++ {
		if !e.Step() {
			break
		}
	}

	got := served
	switch {
	case len(cl[0].dooms) > 0:
		got = ownerAborts
	case !*done:
		got = requestRejected
	}
	if got != c.want {
		t.Fatalf("%s: outcome = %v, want %v (done=%v dooms=%v)",
			c.name, got, c.want, *done, cl[0].dooms)
	}
	// Cross-checks per outcome.
	switch got {
	case served:
		if !*done {
			t.Fatalf("%s: served but request incomplete", c.name)
		}
	case ownerAborts:
		if !*done {
			t.Fatalf("%s: requester won but request incomplete", c.name)
		}
	case requestRejected:
		if sys.L1s[1].RejectsReceived == 0 {
			t.Fatalf("%s: rejected without a reject message", c.name)
		}
	}
}

func TestConflictMatrix(t *testing.T) {
	base := baseCfg()
	rec := recoveryCfg(htm.WaitWakeup)
	hl := htmlockCfg(false)

	cases := []confCase{
		// --- No conflict: read-read sharing is always served. ---
		{name: "base/RR", cfg: base, ownerMode: htm.HTM, ownerWrite: false,
			reqTx: true, reqWrite: false, want: served},
		{name: "rec/RR", cfg: rec, ownerMode: htm.HTM, ownerWrite: false,
			reqTx: true, reqWrite: false, want: served},
		{name: "hl/TL-RR", cfg: hl, ownerMode: htm.TL, ownerWrite: false,
			reqTx: true, reqWrite: false, want: served},

		// --- Baseline requester-win: every true conflict kills the owner. ---
		{name: "base/WR", cfg: base, ownerMode: htm.HTM, ownerWrite: true,
			reqTx: true, reqWrite: false, want: ownerAborts},
		{name: "base/WW", cfg: base, ownerMode: htm.HTM, ownerWrite: true,
			reqTx: true, reqWrite: true, want: ownerAborts},
		{name: "base/RW", cfg: base, ownerMode: htm.HTM, ownerWrite: false,
			reqTx: true, reqWrite: true, want: ownerAborts},
		{name: "base/nontx-W", cfg: base, ownerMode: htm.HTM, ownerWrite: true,
			reqTx: false, reqWrite: false, want: ownerAborts},

		// --- Recovery: priority decides. ---
		{name: "rec/WR-owner-wins", cfg: rec, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 100, reqTx: true, reqWrite: false, reqPrio: 1, want: requestRejected},
		{name: "rec/WR-req-wins", cfg: rec, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 1, reqTx: true, reqWrite: false, reqPrio: 100, want: ownerAborts},
		{name: "rec/WW-owner-wins", cfg: rec, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 100, reqTx: true, reqWrite: true, reqPrio: 1, want: requestRejected},
		{name: "rec/RW-owner-wins", cfg: rec, ownerMode: htm.HTM, ownerWrite: false,
			ownerPrio: 100, reqTx: true, reqWrite: true, reqPrio: 1, want: requestRejected},
		{name: "rec/RW-req-wins", cfg: rec, ownerMode: htm.HTM, ownerWrite: false,
			ownerPrio: 1, reqTx: true, reqWrite: true, reqPrio: 100, want: ownerAborts},
		// Equal priority: smaller core ID (the owner, core 0) wins.
		{name: "rec/WW-tie", cfg: rec, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 7, reqTx: true, reqWrite: true, reqPrio: 7, want: requestRejected},
		// Non-transactional requests always defeat HTM owners, regardless
		// of priority (strong isolation).
		{name: "rec/nontx-beats-prio", cfg: rec, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 1 << 40, reqTx: false, reqWrite: true, want: ownerAborts},

		// --- HTMLock: TL owners reject everything conflicting. ---
		{name: "hl/TL-W-vs-read", cfg: hl, ownerMode: htm.TL, ownerWrite: true,
			reqTx: true, reqWrite: false, reqPrio: 1 << 40, want: requestRejected},
		{name: "hl/TL-W-vs-nontx", cfg: hl, ownerMode: htm.TL, ownerWrite: true,
			reqTx: false, reqWrite: false, want: requestRejected},
		{name: "hl/TL-R-vs-write", cfg: hl, ownerMode: htm.TL, ownerWrite: false,
			reqTx: true, reqWrite: true, reqPrio: 1 << 40, want: requestRejected},
		// HTM owner loses to anyone under HTMLock's recovery arbitration
		// when it has lower priority.
		{name: "hl/HTM-W-low-prio", cfg: hl, ownerMode: htm.HTM, ownerWrite: true,
			ownerPrio: 0, reqTx: true, reqWrite: true, reqPrio: 50, want: ownerAborts},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { runConfCase(t, c) })
	}
}

// TestConflictMatrixCauses verifies the abort-cause classification of
// Fig. 10 for each kind of winning requester.
func TestConflictMatrixCauses(t *testing.T) {
	check := func(name string, cfg htm.Config, setupReq func(*System, uint64), want htm.AbortCause) {
		t.Run(name, func(t *testing.T) {
			e, sys, cl := tsys(t, cfg)
			sys.L1s[0].Tx.BeginAttempt(htm.HTM, e.Now())
			access(t, e, sys, 0, 4096, true)
			drain(e)
			setupReq(sys, e.Now())
			tryAccess(e, sys, 1, 4096, true)
			drain(e)
			if len(cl[0].dooms) != 1 || cl[0].dooms[0] != want {
				t.Fatalf("dooms = %v, want [%v]", cl[0].dooms, want)
			}
		})
	}
	check("htm-requester=mc", baseCfg(), func(sys *System, now uint64) {
		sys.L1s[1].Tx.BeginAttempt(htm.HTM, now)
	}, htm.CauseMC)
	check("plain-requester=non_tran", baseCfg(), func(*System, uint64) {}, htm.CauseNonTx)
	check("mutex-requester=mutex", baseCfg(), func(sys *System, _ uint64) {
		sys.L1s[1].Tx.Mode = htm.Mutex
	}, htm.CauseMutex)
	check("lock-requester=lock", htmlockCfg(false), func(sys *System, now uint64) {
		// Requester is a TL lock transaction.
		granted := false
		sys.L1s[1].HLBegin(func() {
			sys.L1s[1].Tx.BeginAttempt(htm.TL, now)
			granted = true
		})
		for !granted && sys.Engine.Step() {
		}
	}, htm.CauseLock)
}

// TestPriorityMonotonicity is a property test over random priority pairs:
// the owner survives if and only if it wins priority arbitration.
func TestPriorityMonotonicity(t *testing.T) {
	cfg := recoveryCfg(htm.WaitWakeup)
	for i := 0; i < 24; i++ {
		op := uint64(i * 37 % 100)
		rp := uint64(i * 53 % 100)
		want := requestRejected
		if priority.Wins(rp, 1, op, 0) {
			want = ownerAborts
		}
		runConfCase(t, confCase{
			name: fmt.Sprintf("prio-%d-vs-%d", op, rp), cfg: cfg,
			ownerMode: htm.HTM, ownerWrite: true, ownerPrio: op,
			reqTx: true, reqWrite: true, reqPrio: rp,
			want: want,
		})
	}
}

// TestOwnershipTransferStates checks the stable states after each
// non-conflicting transfer (the MESI half of the matrix).
func TestOwnershipTransferStates(t *testing.T) {
	type tc struct {
		name               string
		firstW, secondW    bool
		wantOwner, wantReq cache.State
	}
	for _, c := range []tc{
		{"E-then-read", false, false, cache.Shared, cache.Shared},
		{"E-then-write", false, true, cache.Invalid, cache.Modified},
		{"M-then-read", true, false, cache.Shared, cache.Shared},
		{"M-then-write", true, true, cache.Invalid, cache.Modified},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e, sys, _ := tsys(t, baseCfg())
			access(t, e, sys, 0, 4096, c.firstW)
			drain(e)
			access(t, e, sys, 1, 4096, c.secondW)
			drain(e)
			if got := st(sys, 0, 4096); got != c.wantOwner {
				t.Fatalf("owner state = %v, want %v", got, c.wantOwner)
			}
			if got := st(sys, 1, 4096); got != c.wantReq {
				t.Fatalf("requester state = %v, want %v", got, c.wantReq)
			}
		})
	}
}
