package fastintersect

import (
	"fmt"
	"strings"

	"fastintersect/internal/plan"
)

// Algorithm selects an intersection strategy. The first four are the
// paper's contributions; the rest are the baselines of its evaluation.
type Algorithm int

const (
	// Auto picks per the paper's guidance: HashBin when the size ratio
	// between the largest and smallest list is at least AutoSkewThreshold,
	// RanGroupScan otherwise.
	Auto Algorithm = iota
	// RanGroupScan is Algorithm 5 (§3.3): the simple randomized-partition
	// scheme with m word-image filters — the paper's overall winner.
	RanGroupScan
	// RanGroup is Algorithm 4 (§3.2): randomized partitions with inverted
	// mappings; expected O(n/√w + k·r).
	RanGroup
	// IntGroup is Algorithm 1 (§3.1): fixed-width √w partitions; two sets
	// only.
	IntGroup
	// IntGroupOpt is IntGroup with the optimal group widths of §A.1.1
	// (requires the multi-resolution layers; two sets only).
	IntGroupOpt
	// HashBin is §3.4's per-bucket binary search for skewed sizes.
	HashBin
	// Merge is the linear parallel scan over sorted lists.
	Merge
	// Hash probes pre-built open-addressing hash tables with the smallest
	// list.
	Hash
	// SkipList intersects static skip lists (Pugh).
	SkipList
	// SvS gallops each element of the smallest set through the others.
	SvS
	// Adaptive is Demaine–López-Ortiz–Munro round-robin intersection.
	Adaptive
	// BaezaYates is median divide-and-conquer intersection.
	BaezaYates
	// SmallAdaptive is Barbay et al.'s hybrid.
	SmallAdaptive
	// Lookup is the Sanders–Transier two-level bucket structure.
	Lookup
	// BPP is the (simplified) Bille–Pagh–Pagh hashed-image algorithm.
	BPP
	// Bitseg is the word-parallel bitmap tier (internal/bitseg):
	// density-partitioned lists intersected 64 docIDs per AND over dense
	// ranges, run merges over sparse ones.
	Bitseg
	// BitProbe intersects the lists pairwise from the smallest: each pair
	// sets the smaller list's bits in a 32 KB bitmap window and streams the
	// larger through it, branch-free — §3.1's word image under the identity
	// hash, the query planner's kernel for balanced raw pairs.
	BitProbe
)

// AutoSkewThreshold is the size ratio above which Auto switches to HashBin;
// the paper's ratio experiment finds the hash-based family dominant from
// sr ≈ 100 upward.
const AutoSkewThreshold = 100

// algoNames in declaration order.
var algoNames = [...]string{
	"Auto", "RanGroupScan", "RanGroup", "IntGroup", "IntGroupOpt", "HashBin",
	"Merge", "Hash", "SkipList", "SvS", "Adaptive", "BaezaYates",
	"SmallAdaptive", "Lookup", "BPP", "Bitseg", "BitProbe",
}

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	if int(a) < len(algoNames) {
		return algoNames[a]
	}
	return "Algorithm(?)"
}

// ParseAlgorithm parses an algorithm name, case-insensitively, into the
// corresponding Algorithm. It inverts Algorithm.String and accepts "Auto"
// as well as every name returned by Algorithms.
func ParseAlgorithm(name string) (Algorithm, error) {
	for i, n := range algoNames {
		if strings.EqualFold(n, name) {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("fastintersect: unknown algorithm %q (known: %s)",
		name, strings.Join(algoNames[:], ", "))
}

// KernelAlgorithm maps a query-planner kernel (internal/plan) onto the
// public Algorithm implementing it — how the fsi CLI runs the cost model's
// raw-list choice through this package. Stored-tier kernels have no public
// Algorithm and map to the family default, RanGroupScan.
func KernelAlgorithm(k plan.Kernel) Algorithm {
	switch k {
	case plan.KernelMerge:
		return Merge
	case plan.KernelGallop:
		return SvS
	case plan.KernelHashBin:
		return HashBin
	case plan.KernelBitsegAnd:
		return Bitseg
	case plan.KernelBitProbe:
		return BitProbe
	default:
		return RanGroupScan
	}
}

// Algorithms lists every selectable algorithm (excluding Auto), in the
// order used throughout the benchmarks.
func Algorithms() []Algorithm {
	return []Algorithm{
		RanGroupScan, RanGroup, IntGroup, IntGroupOpt, HashBin,
		Merge, Hash, SkipList, SvS, Adaptive, BaezaYates, SmallAdaptive,
		Lookup, BPP, Bitseg, BitProbe,
	}
}

// Sorted reports whether the algorithm emits ascending document IDs
// (the grouped algorithms emit permutation/group order instead).
func (a Algorithm) Sorted() bool {
	switch a {
	case RanGroupScan, RanGroup, IntGroup, IntGroupOpt, HashBin, Auto:
		return false
	default:
		return true
	}
}

// MaxSets returns the maximum number of sets the algorithm accepts in one
// call (0 = unlimited). IntGroup's fixed-width partitioning does not extend
// beyond two sets (§3.1, "Limitations of Fixed-Width Partitions").
func (a Algorithm) MaxSets() int {
	switch a {
	case IntGroup, IntGroupOpt:
		return 2
	default:
		return 0
	}
}
