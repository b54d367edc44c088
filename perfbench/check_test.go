package main

import (
	"math/rand"
	"strings"
	"testing"

	"hypercube/internal/dht"
	"hypercube/internal/id"
	"hypercube/internal/overlay"
	"hypercube/internal/table"
)

// consistentNet builds a small consistent network with global knowledge.
func consistentNet(t *testing.T, p id.Params, n int) (*overlay.Network, []id.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	net := overlay.New(overlay.Config{Params: p})
	refs := overlay.RandomRefs(p, n, rng, nil)
	net.BuildDirect(refs, rng)
	return net, memberIDs(refs)
}

// TestCheckDef38CatchesSeededFaults seeds one fault at a time into a
// consistent network and requires the checker to flag exactly that entry.
func TestCheckDef38CatchesSeededFaults(t *testing.T) {
	p := id.Params{B: 4, D: 5}
	net, members := consistentNet(t, p, 60)
	if bad := checkDef38(p, members, simTables(net), 0); len(bad) != 0 {
		t.Fatalf("consistent network flagged: %v", bad)
	}
	isMember := map[id.ID]bool{}
	for _, x := range members {
		isMember[x] = true
	}
	x := members[0]
	tbl, _ := net.TableOf(x)

	// A filled entry at level 1 whose suffix has more than one member,
	// so a wrong-suffix member and a ghost both exist to put there.
	level, digit := -1, -1
	for j := 0; j < p.B && level < 0; j++ {
		if e := tbl.Get(1, j); !e.IsZero() && e.ID != x {
			level, digit = 1, j
		}
	}
	if level < 0 {
		t.Fatal("no filled level-1 entry to corrupt")
	}
	want := tbl.DesiredSuffix(level, digit)
	orig := tbl.Get(level, digit)
	var wrong id.ID
	for _, y := range members {
		if !y.HasSuffix(want) {
			wrong = y
			break
		}
	}
	ghost := orig.ID
	for isMember[ghost] {
		ghost = ghost.WithDigit(p.D-1, (ghost.Digit(p.D-1)+1)%p.B)
		if ghost == orig.ID {
			ghost = ghost.WithDigit(p.D-2, (ghost.Digit(p.D-2)+1)%p.B)
		}
	}

	for _, tc := range []struct {
		name  string
		entry table.Neighbor
		flag  string
	}{
		{"empty", table.Neighbor{}, "empty"},
		{"ghost", table.Neighbor{ID: ghost, Addr: "sim://ghost", State: table.StateS}, "not a member"},
		{"wrong-suffix", table.Neighbor{ID: wrong, Addr: "sim://wrong", State: table.StateS}, "lacks the suffix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl.Set(level, digit, tc.entry)
			defer tbl.Set(level, digit, orig)
			bad := checkDef38(p, members, simTables(net), 0)
			if len(bad) != 1 || !strings.Contains(bad[0], tc.flag) {
				t.Fatalf("seeded %s entry at (%d,%d) of %v: got %v", tc.name, level, digit, x, bad)
			}
		})
	}
	if bad := checkDef38(p, members, simTables(net), 0); len(bad) != 0 {
		t.Fatalf("restored network flagged: %v", bad)
	}
}

// TestBruteRootMatchesDHT checks the brute-force surrogate root against
// the DHT's table walk on a consistent network.
func TestBruteRootMatchesDHT(t *testing.T) {
	p := id.Params{B: 4, D: 5}
	net, members := consistentNet(t, p, 60)
	store := dht.NewStore(p, net)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		obj := id.Random(p, rng)
		got, err := store.Root(members[rng.Intn(len(members))], obj)
		if want := bruteRoot(p, members, obj); err != nil || got != want {
			t.Fatalf("root of %v: dht %v (%v), brute force %v", obj, got, err, want)
		}
	}
}
