package classfile

import (
	"fmt"
	"strings"
)

// Rule names identify the verifier check a finding violated. They are part
// of the wire format (tracevmd returns them in 422 responses) — treat them
// as append-only.
const (
	// RuleTruncatedCode: the method's code failed to decode (truncated
	// instruction or switch, invalid opcode or operand encoding) or is empty.
	RuleTruncatedCode = "truncated-code"
	// RuleBadJumpTarget: a branch, switch, or exception-handler target does
	// not land on an instruction boundary (equivalently, on a block leader).
	RuleBadJumpTarget = "bad-jump-target"
	// RuleFallOffEnd: control can run past the last instruction.
	RuleFallOffEnd = "fall-off-end"
	// RuleStackUnderflow: an instruction pops from an empty operand stack.
	RuleStackUnderflow = "stack-underflow"
	// RuleStackOverflow: the operand stack exceeds MaxVerifyStack on some
	// path.
	RuleStackOverflow = "stack-overflow"
	// RuleStackImbalance: paths meet at a join with different stack depths,
	// or a return leaves values on the stack.
	RuleStackImbalance = "stack-imbalance"
	// RuleKindMismatch: an operand's kind (int/float/ref) does not match
	// what the instruction requires, including values whose kind conflicts
	// between merged paths.
	RuleKindMismatch = "kind-mismatch"
	// RuleUninitLocal: a local slot is read before every path to the read
	// has written it.
	RuleUninitLocal = "uninit-local"
	// RuleLocalOutOfRange: a local slot operand is outside the method's
	// declared MaxLocals, or MaxLocals cannot hold the arguments.
	RuleLocalOutOfRange = "local-out-of-range"
	// RuleBadRefIndex: a constant-pool style operand (string, method ref,
	// field ref, class index) is out of range or resolves to nothing.
	RuleBadRefIndex = "bad-ref-index"
	// RuleUnreachableBlock: a basic block can never execute. This is a
	// warning: the program is still accepted.
	RuleUnreachableBlock = "unreachable-block"
)

// Finding is one verifier diagnostic, locating a rule violation at a method
// and program counter.
type Finding struct {
	Method  string `json:"method"`
	PC      uint32 `json:"pc"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	// Warn marks advisory findings (unreachable code) that do not reject
	// the program.
	Warn bool `json:"warn,omitempty"`
}

// String renders the finding as "method @pc: rule: message".
func (f Finding) String() string {
	sev := ""
	if f.Warn {
		sev = " (warning)"
	}
	return fmt.Sprintf("%s @%d: %s%s: %s", f.Method, f.PC, f.Rule, sev, f.Message)
}

// Report is the outcome of verifying one program: the full list of findings
// in method order. A program is rejected iff it has at least one non-warning
// finding.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Reject reports whether the program must be refused (any non-warning
// finding).
func (r *Report) Reject() bool {
	for _, f := range r.Findings {
		if !f.Warn {
			return true
		}
	}
	return false
}

// Warnings returns the advisory findings only.
func (r *Report) Warnings() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Warn {
			out = append(out, f)
		}
	}
	return out
}

// Errors returns the rejecting findings only.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Warn {
			out = append(out, f)
		}
	}
	return out
}

// Err returns nil if the program is accepted, or a *VerifyError wrapping the
// report if it is rejected.
func (r *Report) Err() error {
	if r == nil || !r.Reject() {
		return nil
	}
	return &VerifyError{Report: r}
}

// String renders every finding, one per line.
func (r *Report) String() string {
	var b strings.Builder
	for i, f := range r.Findings {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// VerifyError is the typed error surfaced when a program fails
// verification; callers unwrap it with errors.As to reach the Report.
type VerifyError struct {
	Report *Report
}

// Error summarizes the first rejecting finding and the total count.
func (e *VerifyError) Error() string {
	errs := e.Report.Errors()
	if len(errs) == 0 {
		return "classfile: verify: program rejected"
	}
	s := fmt.Sprintf("classfile: verify: program rejected: %s", errs[0])
	if len(errs) > 1 {
		s += fmt.Sprintf(" (and %d more)", len(errs)-1)
	}
	return s
}
