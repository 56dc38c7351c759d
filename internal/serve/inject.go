package serve

import (
	"repro/internal/core"
	"repro/internal/vm"
)

// Injector is the fault-injection seam. The service consults it (when
// non-nil) at three points of a job's life; production deployments leave
// Config.Injector nil and the only cost is a nil check per run.
//
// Implementations live in internal/faultinject; the interface is defined
// here so the service does not depend on the chaos harness.
type Injector interface {
	// BeforeExec runs on the worker goroutine just before the session is
	// built. Panicking here exercises the panic-recovery and quarantine
	// paths exactly like a VM bug would.
	BeforeExec(req Request)
	// WrapDispatch may wrap the machine's dispatch hook to delay or observe
	// block transitions. Returning the argument unchanged is a no-op; the
	// hook may be nil in unprofiled modes.
	WrapDispatch(h vm.DispatchHook) vm.DispatchHook
	// AfterRun runs after the program finishes but before counters are
	// snapshotted, with the live session. The signal-storm injector uses it
	// to slam the profiler with adversarial dispatch streams so the churn
	// becomes visible to the mode controller.
	AfterRun(req Request, sess *core.Session)
}

// InjectorFuncs adapts up to three plain functions to Injector; nil fields
// are no-ops. Tests use it for one-off hooks without a named type.
type InjectorFuncs struct {
	Exec  func(req Request)
	Wrap  func(h vm.DispatchHook) vm.DispatchHook
	After func(req Request, sess *core.Session)
}

func (f InjectorFuncs) BeforeExec(req Request) {
	if f.Exec != nil {
		f.Exec(req)
	}
}

func (f InjectorFuncs) WrapDispatch(h vm.DispatchHook) vm.DispatchHook {
	if f.Wrap != nil {
		return f.Wrap(h)
	}
	return h
}

func (f InjectorFuncs) AfterRun(req Request, sess *core.Session) {
	if f.After != nil {
		f.After(req, sess)
	}
}
