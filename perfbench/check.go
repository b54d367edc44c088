package main

import (
	"fmt"
	"sort"

	"hypercube/internal/id"
	"hypercube/internal/table"
)

// checkDef38 verifies Definition 3.8 over the given members without
// calling netcheck: an entry (i,j) of x must hold a member carrying the
// suffix j·x[i-1..0] whenever some member carries it, and must be empty
// otherwise. It returns one line per faulty entry, at most limit lines
// (limit <= 0 means all), sorted by node.
func checkDef38(p id.Params, members []id.ID, tableOf func(id.ID) (*table.Table, bool), limit int) []string {
	isMember := make(map[id.ID]bool, len(members))
	inhabited := make(map[string]bool, len(members)*2)
	buf := make([]byte, 0, p.D)
	for _, x := range members {
		isMember[x] = true
		buf = buf[:0]
		for k := 0; k < p.D; k++ {
			buf = append(buf, byte(x.Digit(k)))
			inhabited[string(buf)] = true
		}
	}
	sorted := append([]id.ID(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	var out []string
	report := func(format string, args ...any) bool {
		out = append(out, fmt.Sprintf(format, args...))
		return limit > 0 && len(out) >= limit
	}
	for _, x := range sorted {
		tbl, ok := tableOf(x)
		if !ok {
			if report("%v: no table", x) {
				return out
			}
			continue
		}
		buf = buf[:0]
		for i := 0; i < p.D; i++ {
			for j := 0; j < p.B; j++ {
				want := append(buf, byte(j))
				e := tbl.Get(i, j)
				var bad string
				switch {
				case e.IsZero():
					if inhabited[string(want)] {
						bad = "empty, but the suffix is inhabited"
					}
				case !inhabited[string(want)]:
					bad = fmt.Sprintf("holds %v, but no member has the suffix", e.ID)
				case !hasDigits(e.ID, want):
					bad = fmt.Sprintf("holds %v, which lacks the suffix", e.ID)
				case !isMember[e.ID]:
					bad = fmt.Sprintf("holds %v, which is not a member", e.ID)
				}
				if bad != "" && report("%v (%d,%d): %s", x, i, j, bad) {
					return out
				}
			}
			buf = append(buf, byte(x.Digit(i)))
		}
	}
	return out
}

// hasDigits reports whether x's rightmost digits are want[0], want[1], ...
func hasDigits(x id.ID, want []byte) bool {
	for k, d := range want {
		if x.Digit(k) != int(d) {
			return false
		}
	}
	return true
}

// bruteRoot computes an object's surrogate root from the member IDs
// alone: digit by digit from the right, keep the members matching the
// object's digit, or the cyclically next digit some remaining member
// carries. In a consistent network the DHT's table walk must end there.
func bruteRoot(p id.Params, members []id.ID, object id.ID) id.ID {
	cands := members
	for k := 0; k < p.D && len(cands) > 1; k++ {
		for off := 0; off < p.B; off++ {
			j := (object.Digit(k) + off) % p.B
			var next []id.ID
			for _, x := range cands {
				if x.Digit(k) == j {
					next = append(next, x)
				}
			}
			if len(next) > 0 {
				cands = next
				break
			}
		}
	}
	if len(cands) != 1 {
		return id.Null
	}
	return cands[0]
}
