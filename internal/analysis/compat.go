package analysis

import "repro/internal/classfile"

// Report is the verifier's report.
//
// Deprecated: the verifier moved to classfile, whose Link runs it; kept
// only for benchmark/probes.go.
type Report = classfile.Report

// Verify runs the bytecode verifier.
//
// Deprecated: the verifier moved to classfile, whose Link runs it; kept
// only for benchmark/probes.go.
func Verify(prog *classfile.Program) *Report { return classfile.Verify(prog) }
