// Package parallel provides the small deterministic worker-pool
// helpers the experiment harness uses to exploit multicore hosts:
// results are always collected by index, so a parallel run produces
// byte-identical output to a serial one.
package parallel

import "runtime"

// Workers returns the default worker count (GOMAXPROCS).
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach invokes fn(i) for every i in [0,n) on up to workers
// goroutines (workers <= 0 means Workers()), through a fresh Group's
// ForEachIdx. It waits for all invocations to finish and returns the
// error with the lowest index, if any — so the reported error is the
// same one a serial loop would have hit first. With one worker it is
// that serial loop and stops at the first error. fn must be safe for
// concurrent invocation.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	NewGroup(nil, workers).ForEachIdx(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map applies fn to every index in [0,n) in parallel and returns the
// results in index order. The first error (by index) aborts the
// result; all invocations still run to completion.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
