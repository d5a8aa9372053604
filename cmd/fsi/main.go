// Command fsi intersects sets of integers from files, one ID per line,
// using any of the library's algorithms — a minimal end-to-end demo of the
// public API.
//
// Usage:
//
//	fsi -algo RanGroupScan a.txt b.txt c.txt
//	fsi -explain a.txt b.txt        # print the planned kernel + cost estimate
//	seq 1 2 100 > odd.txt; seq 0 5 100 > five.txt; fsi odd.txt five.txt
//
// With -algo Auto (the default) the kernel is chosen by the query
// planner's calibrated cost model over the operand sizes; -explain prints
// the decision (kernel, cost-ordered operands, and the calibrated
// coefficients that price it) to stderr before intersecting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"fastintersect"
	"fastintersect/internal/plan"
)

func main() {
	var (
		algoName = flag.String("algo", "Auto", "algorithm: Auto, RanGroupScan, RanGroup, IntGroup, HashBin, Merge, Hash, SkipList, SvS, Adaptive, BaezaYates, SmallAdaptive, Lookup, BPP")
		timing   = flag.Bool("time", false, "print preprocessing and intersection times")
		explain  = flag.Bool("explain", false, "print the physical plan (chosen kernel, operand order, calibrated cost estimate) to stderr before intersecting")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: fsi [-algo NAME] [-time] [-explain] file1 [file2 ...]")
		os.Exit(2)
	}
	algo, err := fastintersect.ParseAlgorithm(*algoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsi: %v\n", err)
		os.Exit(2)
	}
	lists := make([]*fastintersect.List, flag.NArg())
	paths := append([]string(nil), flag.Args()...)
	prepStart := time.Now()
	for i, path := range flag.Args() {
		ids, err := readIDs(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsi: %v\n", err)
			os.Exit(1)
		}
		lists[i], err = fastintersect.PreprocessUnsorted(ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsi: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	prep := time.Since(prepStart)
	// Cost-order the operands and, for Auto, let the calibrated cost model
	// pick the kernel — the same planner the query engine runs on.
	type operand struct {
		list *fastintersect.List
		path string
	}
	ops := make([]operand, len(lists))
	for i := range lists {
		ops[i] = operand{lists[i], paths[i]}
	}
	slices.SortStableFunc(ops, func(a, b operand) int { return a.list.Len() - b.list.Len() })
	for i, op := range ops {
		lists[i], paths[i] = op.list, op.path
	}
	if algo == fastintersect.Auto || *explain {
		// Only now pay the one-time micro-calibration: an explicit -algo
		// without -explain never consults the cost model.
		costs := plan.Calibrated()
		if algo == fastintersect.Auto && len(lists) >= 2 {
			ops := make([]plan.Operand, len(lists))
			for i, l := range lists {
				ops[i] = plan.Operand{Len: l.Len(), Shape: plan.ShapeRaw, Span: l.Span()}
			}
			algo = fastintersect.KernelAlgorithm(plan.ChooseStored(costs, plan.KernelsCost, ops))
		}
		if *explain {
			var parts []string
			for i, l := range lists {
				parts = append(parts, fmt.Sprintf("%s(%d)", paths[i], l.Len()))
			}
			// The coefficients the raw-list choice is priced with: the
			// Merge, Gallop, BitProbe and BitsegAnd anchors plus Scan,
			// bitseg's per-output term.
			fmt.Fprintf(os.Stderr, "fsi: plan: kernel=%v operands=[%s] costs{merge=%.2f gallop=%.2f bitprobe=%.2f bitseg_word=%.2f scan=%.2f ns}\n",
				algo, strings.Join(parts, " "), costs.MergeElem, costs.GallopProbe, costs.BitProbeElem, costs.BitsegWord, costs.Scan)
		}
	}
	start := time.Now()
	res, err := fastintersect.IntersectWith(algo, lists...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsi: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	out := append([]uint32(nil), res...)
	if !algo.Sorted() {
		sortU32(out)
	}
	w := bufio.NewWriter(os.Stdout)
	for _, x := range out {
		fmt.Fprintln(w, x)
	}
	w.Flush()
	if *timing {
		fmt.Fprintf(os.Stderr, "algorithm=%v preprocess=%v intersect=%v result=%d\n",
			algo, prep.Round(time.Microsecond), elapsed.Round(time.Microsecond), len(out))
	}
}

func readIDs(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ids []uint32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: bad id %q: %w", path, line, err)
		}
		ids = append(ids, uint32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ids, nil
}

func sortU32(s []uint32) {
	slices.Sort(s)
}
