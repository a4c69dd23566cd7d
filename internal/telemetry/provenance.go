package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/mem"
)

// lineStat accumulates conflict activity on one cache line.
type lineStat struct {
	conflicts uint64 // all arbitration losses on the line
	aborts    uint64 // losses that rolled the loser back
	reads     uint64 // loser involvement: read-set / read-request
	writes    uint64 // loser involvement: write-set / write-request
}

// provenance tracks where conflicts land (per-line heat) and who aborts
// whom (the cores×cores attribution matrix).
type provenance struct {
	lines  map[mem.Line]*lineStat
	matrix []uint64 // matrix[winner*cores+loser] = aborts inflicted
	cores  int
}

func newProvenance() *provenance {
	return &provenance{lines: make(map[mem.Line]*lineStat)}
}

// size allocates the attribution matrix for the machine's core count.
func (p *provenance) size(cores int) {
	p.cores = cores
	p.matrix = make([]uint64, cores*cores)
}

// record notes one conflict outcome.
func (p *provenance) record(winner, loser int, line mem.Line, read, write, aborted bool) {
	ls := p.lines[line]
	if ls == nil {
		ls = &lineStat{}
		p.lines[line] = ls
	}
	ls.conflicts++
	if aborted {
		ls.aborts++
	}
	if read {
		ls.reads++
	}
	if write {
		ls.writes++
	}
	if aborted && winner >= 0 && winner < p.cores && loser >= 0 && loser < p.cores {
		p.matrix[winner*p.cores+loser]++
	}
}

// HotLine is one row of the conflict-heat export.
type HotLine struct {
	Aborts    uint64 `json:"aborts"`
	Conflicts uint64 `json:"conflicts"`
	Line      uint64 `json:"line"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
}

// hotLines returns the n most-conflicted lines, hottest first (line number
// breaks ties so the export is deterministic).
func (p *provenance) hotLines(n int) []HotLine {
	keys := make([]mem.Line, 0, len(p.lines))
	for l := range p.lines {
		keys = append(keys, l)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := p.lines[keys[i]], p.lines[keys[j]]
		if a.conflicts != b.conflicts {
			return a.conflicts > b.conflicts
		}
		return keys[i] < keys[j]
	})
	if n > 0 && len(keys) > n {
		keys = keys[:n]
	}
	out := make([]HotLine, 0, len(keys))
	for _, l := range keys {
		ls := p.lines[l]
		out = append(out, HotLine{
			Aborts: ls.aborts, Conflicts: ls.conflicts, Line: uint64(l),
			Reads: ls.reads, Writes: ls.writes,
		})
	}
	return out
}

// abortMatrix exports the non-zero attribution cells keyed by zero-padded
// core ids ("c03"; "c003" beyond 100 cores), so lexicographic key order
// equals numeric core order.
func (p *provenance) abortMatrix() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for w := 0; w < p.cores; w++ {
		var row map[string]uint64
		for l := 0; l < p.cores; l++ {
			n := p.matrix[w*p.cores+l]
			if n == 0 {
				continue
			}
			if row == nil {
				row = make(map[string]uint64)
				out[p.coreKey(w)] = row
			}
			row[p.coreKey(l)] = n
		}
	}
	return out
}

// coreKey pads c to the digit count of the largest core id, at least two.
func (p *provenance) coreKey(c int) string {
	return fmt.Sprintf("c%0*d", len(strconv.Itoa(max(p.cores-1, 10))), c)
}

// HotLines returns the top-n conflict-heat rows (n<=0 uses the configured
// bound).
func (t *Telemetry) HotLines(n int) []HotLine {
	if n <= 0 {
		n = t.cfg.HotLines
	}
	return t.prov.hotLines(n)
}

// RenderProvenance writes a human-readable conflict-provenance summary:
// the top-n hottest lines and the aborter→abortee matrix rows.
func (t *Telemetry) RenderProvenance(w io.Writer, n int) {
	hot := t.HotLines(n)
	fmt.Fprintf(w, "conflict heat (top %d of %d lines):\n", len(hot), len(t.prov.lines))
	for _, h := range hot {
		fmt.Fprintf(w, "  line %8d  conflicts=%-6d aborts=%-6d reads=%-6d writes=%d\n",
			h.Line, h.Conflicts, h.Aborts, h.Reads, h.Writes)
	}
	mat := t.prov.abortMatrix()
	keys := make([]string, 0, len(mat))
	for k := range mat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "abort attribution (aborter -> abortee=count):\n")
	for _, k := range keys {
		row := mat[k]
		cols := make([]string, 0, len(row))
		for c := range row {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		fmt.Fprintf(w, "  %s:", k)
		for _, c := range cols {
			fmt.Fprintf(w, " %s=%d", c, row[c])
		}
		fmt.Fprintln(w)
	}
}
