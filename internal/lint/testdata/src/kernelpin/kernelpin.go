// Package kernelfix seeds kernel-pinning violations for the kernelpin
// analyzer tests. The test instance of the analyzer roots its reachability
// at this package's Table2/Fig7/BaselineSeconds, mirroring the real
// paper-figure runners, and the fixture constructs real
// repro/internal/core.Options literals so type identity is exercised
// end to end.
package kernelfix

import (
	"repro/internal/core"
	"repro/internal/plan"
)

// Table2 constructs one pinned literal, one literal missing the Kernel
// field, and one pinned to the wrong constant. AuxGraph's zero value IS the
// pinned AuxOff, so literals that omit it are fine; writing any other
// constant is a violation. Strategy's zero value is StrategyAuto (the
// closed-form motif census), so it must be written out like Kernel.
func Table2() {
	use(core.Options{Threads: 20, Kernel: core.KernelMergeOnly, Strategy: core.StrategyDFS})            // pinned: ok (AuxGraph absent = AuxOff)
	use(core.Options{Threads: 20, Strategy: core.StrategyDFS})                                          // want `without Kernel: KernelMergeOnly`
	use(core.Options{Kernel: core.KernelAuto, Strategy: core.StrategyDFS})                              // want `must be the KernelMergeOnly constant`
	use(core.Options{Kernel: core.KernelMergeOnly, AuxGraph: core.AuxOff, Strategy: core.StrategyDFS})  // explicit AuxOff: ok
	use(core.Options{Kernel: core.KernelMergeOnly, AuxGraph: core.AuxAuto, Strategy: core.StrategyDFS}) // want `Options.AuxGraph on a paper-runner path must be the AuxOff constant`
	use(core.Options{Threads: 20, Kernel: core.KernelMergeOnly})                                        // want `without Strategy: StrategyDFS`
	use(core.Options{Kernel: core.KernelMergeOnly, Strategy: core.StrategyAuto})                        // want `Options.Strategy on a paper-runner path must be the StrategyDFS constant`
	use2(plan.Options{})                                                                                // different Options type: ignored
}

// Fig7 forwards through a parameter that every reachable caller pins: the
// BaselineSeconds → KernelSeconds plumbing shape, for both pinned fields.
func Fig7() {
	kernelSeconds(core.KernelMergeOnly) // ok: pins the forwarded parameter
	auxSeconds(core.AuxOff)             // ok: pins the forwarded aux mode
}

// BaselineSeconds forwards unpinned values into the same plumbing. Its own
// parameters cannot be pinned by the checked graph (runners are entry
// points), so forwarding them is reported at the runner itself — once per
// pinned field.
func BaselineSeconds(k core.KernelPolicy, m core.AuxMode) { // want `runner BaselineSeconds forwards a caller-supplied Kernel` `runner BaselineSeconds forwards a caller-supplied AuxGraph`
	kernelSeconds(core.KernelAuto) // want `passes an unpinned Kernel value`
	kernelSeconds(k)
	auxSeconds(core.AuxOn) // want `passes an unpinned AuxGraph value`
	auxSeconds(m)
}

// kernelSeconds is reachable plumbing whose Options literal takes its Kernel
// from a parameter, so every reachable call site must pin it.
func kernelSeconds(kernel core.KernelPolicy) {
	use(core.Options{Threads: 1, Kernel: kernel, Strategy: core.StrategyDFS})
}

// auxSeconds is the same plumbing shape for the aux-graph mode.
func auxSeconds(mode core.AuxMode) {
	use(core.Options{Threads: 1, Kernel: core.KernelMergeOnly, AuxGraph: mode, Strategy: core.StrategyDFS})
}

// unreachable is never referenced from a runner: its unpinned literal is not
// a paper-figure concern.
func unreachable() {
	use(core.Options{})
}

func use(core.Options)  {}
func use2(plan.Options) {}
