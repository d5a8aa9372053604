// Package plan is the engine's query planner: the logical AND/OR/NOT tree
// and its normalizer (the canonical form the result cache keys on), a
// calibrated cost model over the paper's intersection kernels, and a
// physical planner that lowers a normalized tree to explicit operators —
// kernel choice and operand order. One chooser, ChooseStored, prices every
// conjunction: the engine's raw lists (and its intermediate results) among
// BitProbe, Gallop and BitsegAnd, and internal/compress's compressed lists
// among the stored-tier strategies.
//
// The package is deliberately a leaf: it knows set sizes and storage shapes
// (Operand), not posting lists, so internal/engine and internal/compress can
// both consult the same cost model without an import cycle. Calibration
// (cost.go) measures the per-element price of the primitive operations the
// kernels are built from via internal/core's cost hooks.
package plan

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// The query language:
//
//	query   := or
//	or      := and ( "OR" and )*
//	and     := unary ( "AND"? unary )*          // adjacency is implicit AND
//	unary   := "NOT" unary | term | "(" query ")"
//
// Keywords are case-insensitive; terms are any other whitespace- and
// paren-free token and are matched case-sensitively against the index.
// Every query must select a bounded set: "NOT a" alone (or "a OR NOT b")
// is rejected because its result is the complement of a posting list.

// Node is a parsed query expression. Its String method renders the
// normalized form used as the cache key.
type Node interface {
	String() string
}

// Composite nodes memoize their canonical rendering: Normalize fills str
// bottom-up, so the sorts inside normalization and the cache-key render
// reuse one string per node instead of re-rendering per comparison (the
// parser's dominant allocation cost before memoization).

// Term is a leaf: one index term.
type Term string

// Not negates its child. After Parse it appears only as a direct operand of
// an And that also has a positive operand (see Bounded).
type Not struct {
	Kid Node
	str string
}

// And is a conjunction. After Parse its operands are flattened, sorted and
// deduplicated.
type And struct {
	Kids []Node
	str  string
}

// Or is a disjunction. After Parse its operands are flattened, sorted and
// deduplicated.
type Or struct {
	Kids []Node
	str  string
}

func (t Term) String() string { return string(t) }

func (n Not) String() string {
	if n.str != "" {
		return n.str
	}
	return "(NOT " + n.Kid.String() + ")"
}

func (n And) String() string {
	if n.str != "" {
		return n.str
	}
	return joinKids(n.Kids, " AND ")
}

func (n Or) String() string {
	if n.str != "" {
		return n.str
	}
	return joinKids(n.Kids, " OR ")
}

func joinKids(kids []Node, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = k.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Parse errors.
var (
	ErrEmptyQuery = errors.New("plan: empty query")
	// ErrUnbounded rejects queries whose result is the complement of a
	// posting set (e.g. "NOT a", "a OR NOT b", "a AND (b OR NOT c)"):
	// evaluating them would require materializing the whole document
	// universe. NOT is only valid as a direct operand of a conjunction that
	// also has a positive operand.
	ErrUnbounded = errors.New("plan: query selects an unbounded set; NOT is only valid inside a conjunction with a positive term (e.g. \"a AND NOT b\")")
)

// SyntaxError reports a malformed query together with the byte offset of
// the offending token, so callers (e.g. fsiserve's 400 responses) can point
// at the position in the original query string.
type SyntaxError struct {
	Pos int    // byte offset into the query string
	Msg string // what was wrong at that offset
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("plan: syntax error at offset %d: %s", e.Pos, e.Msg)
}

type tokKind int

const (
	tokTerm tokKind = iota
	tokAnd
	tokOr
	tokNot
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset of the token's first byte
}

func lex(q string) []token {
	var toks []token
	i := 0
	for i < len(q) {
		c := q[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		default:
			start := i
			for i < len(q) && !strings.ContainsRune(" \t\n\r()", rune(q[i])) {
				i++
			}
			word := q[start:i]
			switch {
			case strings.EqualFold(word, "AND"):
				toks = append(toks, token{tokAnd, word, start})
			case strings.EqualFold(word, "OR"):
				toks = append(toks, token{tokOr, word, start})
			case strings.EqualFold(word, "NOT"):
				toks = append(toks, token{tokNot, word, start})
			default:
				toks = append(toks, token{tokTerm, word, start})
			}
		}
	}
	return toks
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() (token, bool) {
	if p.i < len(p.toks) {
		return p.toks[p.i], true
	}
	return token{}, false
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.i++
	}
	return t, ok
}

// Parse parses, normalizes and validates a query. The returned Node's
// String is the canonical cache key: AND/OR operands are flattened, sorted
// and deduplicated, and double negations are eliminated, so semantically
// identical queries share a cache entry.
func Parse(q string) (Node, error) {
	n, err := ParseTree(q)
	if err != nil {
		return nil, err
	}
	n = Normalize(n)
	if !Bounded(n) {
		return nil, ErrUnbounded
	}
	return n, nil
}

// ParseTree parses a query into its raw (un-normalized, un-validated)
// logical tree. Most callers want Parse; ParseTree exists so the normalizer
// can be tested and fuzzed against the tree the grammar actually produced.
func ParseTree(q string) (Node, error) {
	toks := lex(q)
	if len(toks) == 0 {
		return nil, ErrEmptyQuery
	}
	p := &parser{toks: toks}
	n, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if t, ok := p.peek(); ok {
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unexpected %q", t.text)}
	}
	return n, nil
}

func (p *parser) parseOr() (Node, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Node{first}
	for {
		t, ok := p.peek()
		if !ok || t.kind != tokOr {
			break
		}
		p.i++
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return first, nil
	}
	return Or{Kids: kids}, nil
}

func (p *parser) parseAnd() (Node, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []Node{first}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		switch t.kind {
		case tokAnd:
			p.i++
		case tokTerm, tokNot, tokLParen:
			// adjacency: implicit AND
		default:
			if len(kids) == 1 {
				return first, nil
			}
			return And{Kids: kids}, nil
		}
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 1 {
		return first, nil
	}
	return And{Kids: kids}, nil
}

func (p *parser) parseUnary() (Node, error) {
	t, ok := p.next()
	if !ok {
		end := 0
		if n := len(p.toks); n > 0 {
			end = p.toks[n-1].pos + len(p.toks[n-1].text)
		}
		return nil, &SyntaxError{end, "unexpected end of query"}
	}
	switch t.kind {
	case tokNot:
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{Kid: kid}, nil
	case tokTerm:
		return Term(t.text), nil
	case tokLParen:
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		rp, ok := p.next()
		if !ok || rp.kind != tokRParen {
			return nil, &SyntaxError{t.pos, "unclosed parenthesis"}
		}
		return n, nil
	default:
		return nil, &SyntaxError{t.pos, fmt.Sprintf("unexpected %q", t.text)}
	}
}

// Normalize canonicalizes an expression: nested same-operator nodes are
// flattened, operands sorted and deduplicated, single-child connectives
// collapsed, and NOT(NOT x) reduced to x. It is idempotent —
// Normalize(Normalize(n)) renders identically to Normalize(n) — and
// preserves semantics.
func Normalize(n Node) Node {
	switch n := n.(type) {
	case Term:
		return n
	case Not:
		kid := Normalize(n.Kid)
		if inner, ok := kid.(Not); ok {
			return inner.Kid
		}
		return Not{Kid: kid, str: "(NOT " + kid.String() + ")"}
	case And:
		return normalizeKids(n.Kids, true)
	case Or:
		return normalizeKids(n.Kids, false)
	}
	panic("plan: unknown node type")
}

func normalizeKids(kids []Node, isAnd bool) Node {
	var flat []Node
	for _, k := range kids {
		k = Normalize(k)
		if isAnd {
			if a, ok := k.(And); ok {
				flat = append(flat, a.Kids...)
				continue
			}
		} else {
			if o, ok := k.(Or); ok {
				flat = append(flat, o.Kids...)
				continue
			}
		}
		flat = append(flat, k)
	}
	slices.SortStableFunc(flat, func(a, b Node) int { return strings.Compare(a.String(), b.String()) })
	dedup := flat[:0]
	for i, k := range flat {
		if i > 0 && k.String() == flat[i-1].String() {
			continue
		}
		dedup = append(dedup, k)
	}
	if len(dedup) == 1 {
		return dedup[0]
	}
	if isAnd {
		return And{Kids: dedup, str: joinKids(dedup, " AND ")}
	}
	return Or{Kids: dedup, str: joinKids(dedup, " OR ")}
}

// Bounded reports whether n is evaluable as a subset of materialized
// posting lists. NOT is only allowed as a direct operand of a conjunction
// that has at least one positive operand (`a AND NOT b`), never standalone
// or under OR — anything else would require complementing over the whole
// document universe.
func Bounded(n Node) bool {
	switch n := n.(type) {
	case Term:
		return true
	case Not:
		return false
	case And:
		positive := false
		for _, k := range n.Kids {
			if nk, ok := k.(Not); ok {
				if !Bounded(nk.Kid) {
					return false
				}
				continue
			}
			if !Bounded(k) {
				return false
			}
			positive = true
		}
		return positive
	case Or:
		for _, k := range n.Kids {
			if !Bounded(k) {
				return false
			}
		}
		return true
	}
	return false
}

// Terms returns the distinct positive and negated terms referenced by n.
func Terms(n Node) []string {
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case Term:
			seen[string(n)] = true
		case Not:
			walk(n.Kid)
		case And:
			for _, k := range n.Kids {
				walk(k)
			}
		case Or:
			for _, k := range n.Kids {
				walk(k)
			}
		}
	}
	walk(n)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}
