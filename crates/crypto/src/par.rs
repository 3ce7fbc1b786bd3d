//! Data-parallel helper: contiguous partitions of a job list on scoped
//! threads, with results in input order.
//!
//! This is the one partition helper of the workspace. The network fan-out
//! pool re-exports it for per-receiver and per-shard jobs, and
//! [`crate::KeyPair::from_seed`] derives its one-time key leaves on it.
//!
//! Each chunk runs sequentially on one worker and the results are
//! reassembled in input order, so what is computed never depends on how
//! many threads ran it — only where. Callers size the pool from
//! [`host_parallelism`], read once per process.

use std::sync::OnceLock;

/// The number of threads the host can run in parallel (at least 1).
///
/// Read once per process: on Linux `available_parallelism` reads cgroup
/// files on every call, and the pool is sized once per key pair and per
/// fan-out wave.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits `items` into at most `workers` contiguous chunks whose sizes
/// differ by at most one. Returns `(start, end)` half-open ranges; empty
/// input yields no chunks.
pub fn partition_bounds(items: usize, workers: usize) -> Vec<(usize, usize)> {
    if items == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, items);
    let base = items / workers;
    let extra = items % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Runs `f` over `jobs` on up to `workers` threads, returning the results
/// **in input order**.
///
/// Jobs are partitioned with [`partition_bounds`]. The caller's thread
/// runs the first chunk and one scoped thread runs each other chunk, so
/// two jobs in the same chunk never race and the result vector is
/// independent of thread scheduling. With `workers <= 1` (or a single
/// job) everything runs inline on the caller's thread.
pub fn run_partitioned<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let bounds = partition_bounds(n, workers);
    let mut it = jobs.into_iter();
    let mut chunks: Vec<Vec<J>> = bounds
        .iter()
        .map(|(start, end)| it.by_ref().take(end - start).collect())
        .collect();
    let first = chunks.remove(0);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut results: Vec<R> = first.into_iter().map(f).collect();
        for h in handles {
            results.extend(h.join().expect("partitioned worker panicked"));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_jobs_and_first_chunks_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: usize| std::thread::current().id() == caller;
        assert!(run_partitioned(vec![0], 4, on_caller)
            .into_iter()
            .all(|x| x));
        assert!(run_partitioned(vec![0; 7], 1, on_caller)
            .into_iter()
            .all(|x| x));
        let spread = run_partitioned(vec![0; 64], 2, on_caller);
        assert!(spread[..32].iter().all(|x| *x));
        assert!(!spread[32..].iter().any(|x| *x));
    }

    #[test]
    fn host_parallelism_is_positive_and_stable() {
        assert!(host_parallelism() >= 1);
        assert_eq!(host_parallelism(), host_parallelism());
    }
}
