package plan

import (
	"strings"
	"testing"
)

func TestExplainAnalyze(t *testing.T) {
	st := &fakeStats{docs: 10_000, lens: map[string]int{"a": 100, "b": 2_000, "c": 500}}
	var p Plan
	Build(&p, mustParse(t, "a AND b OR c"), "(a & b) | c", st, DefaultCosts())

	actuals := make([]OpActual, len(p.Ops))
	for i := range p.Ops {
		o := &p.Ops[i]
		switch o.Kind {
		case OpTerm:
			actuals[i] = OpActual{Execs: 1, Rows: int64(o.Rows)}
		case OpAnd:
			actuals[i] = OpActual{Execs: 1, Rows: 37, Ns: 12_000}
		case OpOr:
			actuals[i] = OpActual{Execs: 1, Rows: 520, Ns: 40_000}
		}
	}
	out := p.ExplainAnalyze(actuals)
	for _, want := range []string{
		"act_time=",
		"act_rows=37",
		"act_rows=520",
		"act_rows=100", // term operand input length
		"est_rows=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
	// The OR's exclusive time is its span minus the AND child's.
	if !strings.Contains(out, "OR merge") {
		t.Fatalf("missing OR line:\n%s", out)
	}
	orLine := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "OR merge") {
			orLine = l
		}
	}
	if !strings.Contains(orLine, "act_time=28.0µs") {
		t.Errorf("OR exclusive time should be 40µs-12µs=28µs, got line %q", orLine)
	}
}

func TestExplainAnalyzeNotExecuted(t *testing.T) {
	st := &fakeStats{docs: 10_000, lens: map[string]int{"a": 100, "b": 200}}
	var p Plan
	Build(&p, mustParse(t, "a AND b"), "a & b", st, DefaultCosts())
	actuals := make([]OpActual, len(p.Ops)) // all zero: nothing ran
	out := p.ExplainAnalyze(actuals)
	if n := strings.Count(out, "(not executed)"); n != len(p.Ops) {
		t.Fatalf("want %d '(not executed)' markers, got %d:\n%s", len(p.Ops), n, out)
	}
}

func TestExplainAnalyzeMultiExec(t *testing.T) {
	st := &fakeStats{docs: 10_000, lens: map[string]int{"a": 100, "b": 200}}
	var p Plan
	Build(&p, mustParse(t, "a AND b"), "a & b", st, DefaultCosts())
	actuals := make([]OpActual, len(p.Ops))
	for i := range actuals {
		actuals[i] = OpActual{Execs: 4, Rows: 80, Ns: 8_000}
	}
	out := p.ExplainAnalyze(actuals)
	if !strings.Contains(out, "execs=4") {
		t.Fatalf("missing execs=4 marker:\n%s", out)
	}
}

func TestKernelCountMatchesNames(t *testing.T) {
	if KernelCount != len(kernelNames) {
		t.Fatal("KernelCount out of sync with kernelNames")
	}
	if Kernel(KernelCount-1).String() == "Kernel(?)" {
		t.Fatal("last kernel has no name")
	}
}
