//go:build amd64

package embedding

// havePoolAsm reports that the chunk kernels of pool_amd64.s exist on
// this architecture.
const havePoolAsm = true

// sumJobsAVX row-sums each of the n ≥ 1 jobs at jobs (fp32 bags, every
// Dim a multiple of 8, every bag non-empty) in AVX registers.
//
//go:noescape
func sumJobsAVX(jobs *sumJob, n int)

// prefetchJobs prefetches every line the rows of the n ≥ 1 jobs at jobs
// will read.
//
//go:noescape
func prefetchJobs(jobs *sumJob, n int)
