package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment runner: a bounded worker pool that
// executes independent simulation jobs concurrently.  Every job owns its
// entire simulated world (engine, regions, clients, controllers), so jobs
// share no mutable state and the pool needs no locking beyond handing out
// work.  Determinism comes from the jobs themselves: each job's seed is fixed
// at expansion time (see Matrix.Expand), so the results are bit-identical
// regardless of worker count or completion order.

// Job is one independent unit of work for the parallel runner: a scenario to
// simulate under one policy.
type Job struct {
	// Index is the job's position in its expanded matrix.  Results are
	// returned in index order, so a sweep's output does not depend on which
	// worker finished first.
	Index int
	// Scenario is the complete experiment configuration, including the seed.
	Scenario Scenario
	// Policy is the policy under test.  The runner clones it before use, so
	// stateful policies (Policy 3's jitter stream) are never shared between
	// concurrent jobs.
	Policy NamedPolicy
	// Rep is the replication index the job was expanded with (0 for jobs
	// built outside a matrix); sweep rows report it alongside the derived
	// seed.
	Rep int
}

// JobResult couples a job with its outcome.  Err is set when the job's own
// simulation failed; other jobs keep running.
type JobResult struct {
	Job    Job
	Result *Result
	Err    error
}

// Options configures the parallel runner.
type Options struct {
	// Workers bounds the number of concurrently running simulations.
	// Non-positive selects runtime.GOMAXPROCS(0).
	Workers int
}

// ForEach runs fn(0..n-1) on up to workers goroutines (GOMAXPROCS when
// workers <= 0, never more than n) and blocks until every started call
// returned.  With one worker the calls run inline on the caller's goroutine
// in index order.  Indices are handed out through an atomic counter, so a
// worker that finishes a cheap job picks up the next one.  A cancelled
// context stops new work from being handed out (calls already in flight
// complete); an index claimed after cancellation returns without calling
// fn, and ForEach then returns the context's error.  Errors returned by fn
// are collected and joined; they do not cancel the remaining work.
//
// It is the job-level fan-out (sweeps, policy runs, the trainer); the
// simulation's own per-shard phases run on the event loop's worker pool
// (simclock.ShardedEngine).
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	var mu sync.Mutex
	var errs []error
	call := func(i int) {
		if ctx.Err() != nil {
			return
		}
		if err := fn(i); err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			call(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					call(i)
				}
			}()
		}
		wg.Wait()
	}

	// A cancelled context does not swallow failures that happened before the
	// cancellation: both are joined into the returned error.
	if err := ctx.Err(); err != nil {
		return errors.Join(append([]error{err}, errs...)...)
	}
	return errors.Join(errs...)
}

// RunParallel executes the jobs on a bounded worker pool and returns one
// JobResult per job, in job order.  Per-job simulation failures are reported
// in the corresponding JobResult and do not abort the sweep.  The returned
// error is non-nil only when cancellation actually cost results — at least
// one job was never dispatched (those slots carry the cancellation error); a
// context that expires after the last job was handed out still yields the
// complete result set with a nil error.
//
// Results are deterministic: a job's outcome depends only on its Scenario
// (including its seed) and policy, so the same job list produces bit-identical
// results for any worker count.
func RunParallel(ctx context.Context, jobs []Job, opt Options) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	for i, job := range jobs {
		results[i] = JobResult{Job: job}
	}
	// The pool callback never returns an error (failures land in the job's
	// slot), so ForEach only reports context cancellation.  Policy cloning is
	// not needed here: Run constructs the deployment via NewBackend, which
	// clones the policy per simulation.
	// Worker normalisation (non-positive selects GOMAXPROCS, the pool never
	// exceeds the job count) happens inside the fan-out.
	err := ForEach(ctx, len(jobs), opt.Workers, func(i int) error {
		job := jobs[i]
		res, runErr := Run(job.Scenario, job.Policy)
		results[i] = JobResult{Job: job, Result: res, Err: runErr}
		return nil
	})
	if err != nil {
		undispatched := 0
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = fmt.Errorf("experiment: job %d (%s/%s) not dispatched: %w",
					results[i].Job.Index, results[i].Job.Scenario.Name, results[i].Job.Policy.Key, err)
				undispatched++
			}
		}
		if undispatched == 0 {
			// Cancellation landed after the last dispatch: every job ran to
			// completion, so the result set is whole — don't discard it.
			err = nil
		}
	}
	return results, err
}

// FirstError returns the first per-job error in job order, or nil when every
// job succeeded.
func FirstError(results []JobResult) error {
	for _, jr := range results {
		if jr.Err != nil {
			return jr.Err
		}
	}
	return nil
}
