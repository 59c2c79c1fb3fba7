//go:build !amd64

package embedding

// Stubs for architectures without pool_amd64.s: havePoolAsm is a
// compile-time constant, so the calls are dead-code-eliminated, but they
// must exist to typecheck.

const havePoolAsm = false

func sumJobsAVX(jobs *sumJob, n int)   { panic("no pool asm") }
func prefetchJobs(jobs *sumJob, n int) { panic("no pool asm") }
