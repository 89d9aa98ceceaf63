package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// kernelThreads is the process-wide cap on goroutines the numeric kernels may
// use. 0 means GOMAXPROCS. It is read atomically so experiments can adjust it
// between runs without racing an in-flight pool.
var kernelThreads int64

// kernelTokens is a global semaphore bounding the *total* number of extra
// kernel goroutines in flight across every concurrent caller. Federated
// training already fans out one goroutine per client (fed.forEachAlive);
// without a shared bound, nested kernel parallelism would multiply into
// clients × threads goroutines and thrash the scheduler. Tokens are acquired
// with a non-blocking try, so a kernel running under an already-saturated
// fleet simply degrades to sequential execution instead of deadlocking.
var (
	tokensMu     sync.Mutex
	kernelTokens chan struct{}
	tokensSize   int
)

// SetKernelThreads sets the worker budget for tensor kernels and returns the
// previous setting, so a caller can restore it exactly. n <= 0 (and a
// returned 0) means "follow GOMAXPROCS", read afresh on every kernel call.
// The setting is global: it bounds total kernel goroutines across all
// concurrently-training clients.
func SetKernelThreads(n int) (prev int) {
	prev = int(atomic.SwapInt64(&kernelThreads, int64(max(n, 0))))
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tokensMu.Lock()
	if tokensSize != n {
		tokensSize = n
		kernelTokens = make(chan struct{}, n)
		for i := 0; i < n-1; i++ {
			kernelTokens <- struct{}{}
		}
	}
	tokensMu.Unlock()
	return prev
}

// KernelThreads reports the current kernel worker budget.
func KernelThreads() int {
	n := int(atomic.LoadInt64(&kernelThreads))
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// tokens returns the current semaphore, initialising it on first use.
func tokens() chan struct{} {
	tokensMu.Lock()
	if kernelTokens == nil {
		tokensSize = KernelThreads()
		kernelTokens = make(chan struct{}, tokensSize)
		for i := 0; i < tokensSize-1; i++ {
			kernelTokens <- struct{}{}
		}
	}
	ch := kernelTokens
	tokensMu.Unlock()
	return ch
}

// Parallel splits the index range [0, n) into chunks and runs fn(lo, hi) over
// them, using at most KernelThreads() goroutines in total (shared with every
// other kernel currently running). The calling goroutine always participates,
// so Parallel never blocks waiting for workers and nests safely under
// client-level parallelism: when the pool is exhausted it simply runs fn(0, n)
// inline.
//
// fn must compute each index independently of the chunking (disjoint writes,
// no cross-chunk accumulation), which makes the result bitwise identical for
// every thread-count setting.
func Parallel(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	maxW := KernelThreads()
	if maxW > n {
		maxW = n
	}
	if maxW <= 1 {
		fn(0, n)
		return
	}
	// Grab extra workers without blocking; the caller is worker 0.
	ch := tokens()
	extra := 0
acquire:
	for extra < maxW-1 {
		// The racy token grab only varies the worker count; every kernel
		// splits work so results are bitwise identical at any width
		// (TestEngineDeterministicAcrossParallelism pins this).
		//lint:ignore fedlint/determinism select only picks worker count, results are width-invariant
		select {
		case <-ch:
			extra++
		default:
			break acquire
		}
	}
	if extra == 0 {
		fn(0, n)
		return
	}
	workers := extra + 1
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	launched := 0
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		launched++
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { ch <- struct{}{} }()
			fn(lo, hi)
		}(lo, hi)
	}
	// Return any tokens that did not map to a chunk (ceil rounding can cover
	// [0, n) with fewer than `workers` chunks).
	for i := launched; i < extra; i++ {
		ch <- struct{}{}
	}
	fn(0, chunk)
	wg.Wait()
}
