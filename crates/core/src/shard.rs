//! Dependency-free fan-out for the engine tick.
//!
//! The tick's heavy stages — quartet enrichment, per-quartet Algorithm-1
//! verdicts, traceroute diffs, background baseline probes — are pure
//! functions of immutable inputs, so they fan out across a
//! [`std::thread::scope`] worker pool without any new crates. One
//! primitive does it, [`run_chunked`]: the ordered worklist splits into
//! contiguous chunks, each chunk runs on its own worker, and the chunk
//! results come back in chunk order. Concatenating them is the sequence
//! one thread would have produced, so output is byte-identical at any
//! thread count, and nothing depends on `HashMap` iteration order or
//! thread scheduling.
//!
//! With `parallelism <= 1` the whole list is one chunk, run inline on
//! the calling thread.

use blameit_obs::span;
use blameit_obs::trace::{local_subscribers, with_subscribers};

/// Worker threads available on this machine (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `BLAMEIT_THREADS` environment override, if set to a positive
/// integer.
pub fn env_threads() -> Option<usize> {
    std::env::var("BLAMEIT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|n: &usize| *n > 0)
}

/// Default engine parallelism: `BLAMEIT_THREADS` if set, otherwise all
/// available cores.
pub fn default_parallelism() -> usize {
    env_threads().unwrap_or_else(available_parallelism)
}

/// Runs `task` over at most `parallelism` contiguous chunks of `items`,
/// returning the chunk results in input order (always at least one:
/// empty input is one empty chunk). A chunk-level closure lets a worker
/// keep per-chunk scratch (e.g. [`crate::metrics::ShardMetrics`]).
///
/// With `parallelism <= 1` or a single item the one chunk runs inline on
/// the calling thread. Otherwise each chunk gets a scoped worker thread
/// that inherits this thread's scoped trace subscribers, so a
/// `with_subscriber` capture on the coordinator still sees the workers'
/// spans.
pub fn run_chunked<T: Sync, R: Send>(
    parallelism: usize,
    items: &[T],
    task: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    if parallelism <= 1 || items.len() <= 1 {
        return vec![task(items)];
    }
    let chunk = items.len().div_ceil(parallelism.min(items.len()));
    let subs = local_subscribers();
    std::thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let subs = subs.clone();
                scope.spawn(move || {
                    with_subscribers(subs, || {
                        let _s = span!("blameit::shard", "chunk", chunk = ci, items = slice.len());
                        task(slice)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    })
}

/// Maps `f` over `items` on [`run_chunked`]; the output order always
/// matches the input order.
pub fn parallel_map<T: Sync, R: Send>(
    parallelism: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    concat_chunks(run_chunked(parallelism, items, |chunk| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    }))
}

/// Concatenates per-chunk outputs in chunk order. The first chunk's
/// buffer is the result's, so the single-chunk case moves nothing.
pub(crate) fn concat_chunks<R>(chunks: Vec<Vec<R>>) -> Vec<R> {
    let mut chunks = chunks.into_iter();
    let mut out = chunks.next().unwrap_or_default();
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_and_in_input_order() {
        let items: Vec<u32> = (0..50).collect();
        for par in [2, 4, 16, 64] {
            let chunks = run_chunked(par, &items, <[u32]>::to_vec);
            assert!(chunks.len() <= par, "at most {par} chunks");
            assert_eq!(chunks.concat(), items, "par={par}");
        }
    }

    #[test]
    fn one_thread_runs_one_chunk_inline() {
        let me = std::thread::current().id();
        let items: Vec<u32> = (0..50).collect();
        let ran_on = run_chunked(1, &items, |c| (c.len(), std::thread::current().id()));
        assert_eq!(ran_on, vec![(50, me)]);
        // Empty input is still one (empty) chunk, so per-chunk scratch
        // always exists.
        let empty: Vec<u32> = Vec::new();
        assert_eq!(run_chunked(8, &empty, <[u32]>::len), vec![0]);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..101).collect();
        let seq = parallel_map(1, &items, |x| x * 2);
        for par in [2, 4, 8] {
            assert_eq!(parallel_map(par, &items, |x| x * 2), seq);
        }
        assert_eq!(seq[100], 200);
    }

    #[test]
    fn env_threads_parses_positive_integers_only() {
        // Cannot set env vars safely in parallel tests; just exercise
        // the default resolution path.
        assert!(available_parallelism() >= 1);
        assert!(default_parallelism() >= 1);
    }
}
