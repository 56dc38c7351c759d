package core

import (
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/trace"
)

// CompiledStore holds nothing.
//
// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
type CompiledStore struct{}

// EnableCompile does nothing.
//
// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
func (p *Profiler) EnableCompile(*cfg.ProgramCFG, *valueflow.Facts, *CompiledStore) {}

// SetCompileEnv does nothing.
//
// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
func (c *Cache) SetCompileEnv(*cfg.ProgramCFG, *valueflow.Facts) {}

// Compile returns nil.
//
// Deprecated: tier 2 was removed; kept only for benchmark/probes.go.
func (c *Cache) Compile(*trace.Trace) *trace.Program { return nil }

// Index returns the bound graph, which serves trace lookups by entry edge.
//
// Deprecated: traces hang on their BCG nodes (profile.Graph.Lookup); kept
// only for benchmark/probes.go.
func (c *Cache) Index() trace.Source { return c.graph }
