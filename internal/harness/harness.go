// Package harness regenerates every table and figure of the paper's
// evaluation (Section 4 and Appendices A.5.2/C). Each experiment is a named
// entry in Registry producing one or more text tables, and names the paper
// artifact it reproduces; cmd/fsibench is the CLI front end.
//
// Experiments run at two scales: "small" (the default; minutes for the full
// registry) and "full" (paper-scale set sizes; tens of minutes). Absolute
// times differ from the paper's 2011 hardware — the comparisons of interest
// are relative: who wins, by what factor, and where the crossovers fall.
package harness

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"fastintersect"
)

// Config parameterizes a run.
type Config struct {
	Scale string // "small" or "full"
	Seed  uint64
	Reps  int // timing repetitions; the minimum is reported
	// Algos optionally restricts the algorithms an experiment times. Empty
	// means "the experiment's own default list". Experiments whose layout
	// depends on a fixed algorithm set (e.g. the Merge-relative speedups of
	// the real-workload tables) may ignore the filter.
	Algos []fastintersect.Algorithm
}

// NoteFilter appends a visible warning to a table naming every algorithm an
// -algos filter requested that the table does not time. FilterAlgos only
// narrows an experiment's fixed list, so a requested algorithm outside it
// would otherwise be dropped without a word; when the filter matched none
// of the list, the warning also says the table has no timings. algos is
// the filtered list the table times.
func (t *Table) NoteFilter(c Config, algos []fastintersect.Algorithm) {
	var dropped []fastintersect.Algorithm
	for _, a := range c.Algos {
		if !slices.Contains(algos, a) && !slices.Contains(dropped, a) {
			dropped = append(dropped, a)
		}
	}
	if len(dropped) == 0 {
		return
	}
	note := fmt.Sprintf("warning: -algos requested %s, which this experiment does not time",
		strings.Join(algoNames(dropped), ", "))
	if len(algos) == 0 {
		note += "; no timings measured"
	}
	t.Notes = append(t.Notes, note)
}

// FilterAlgos restricts def to the members of c.Algos, preserving def's
// order. With no filter configured it returns def unchanged.
func (c Config) FilterAlgos(def []fastintersect.Algorithm) []fastintersect.Algorithm {
	if len(c.Algos) == 0 {
		return def
	}
	out := make([]fastintersect.Algorithm, 0, len(def))
	for _, a := range def {
		for _, want := range c.Algos {
			if a == want {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// DefaultConfig is the small-scale default.
func DefaultConfig() Config {
	return Config{Scale: "small", Seed: 0x5EED_F00D, Reps: 3}
}

// Full reports whether paper-scale sizes were requested.
func (c Config) Full() bool { return c.Scale == "full" }

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Paper string // the paper artifact it reproduces
	Run   func(cfg Config) []*Table
}

// Registry holds all experiments in presentation order.
var Registry []Experiment

func register(e Experiment) { Registry = append(Registry, e) }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// timeIt runs f reps times and returns the minimum duration (the standard
// way to suppress scheduling noise for deterministic workloads).
func timeIt(reps int, f func()) time.Duration {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// ms formats a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// sortedKeys returns the sorted int keys of a map.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
