//! The workspace's one fan-out helper: split a slice into contiguous
//! chunks, run each chunk on a scoped worker thread, and collect the
//! per-chunk results in input order.
//!
//! Batched work (the experiment runner's runs, a service batch's shards,
//! the planners' per-column checks, bulk ε-capacity bisections) goes
//! through [`map_chunks`]. The workspace builds with vendored
//! dependencies only, so `std::thread::scope` is the whole machinery.
//! Because the results come back in input order whatever the worker
//! count, a caller that folds them in order gets the same bits on any
//! host.
//!
//! Every caller-facing `threads` knob follows one rule: `0` means one
//! worker per available core, any other value is taken as given.

use std::num::NonZeroUsize;

/// Workers for a caller-facing `threads` knob: `0` means one per available
/// core, any other value is taken as given.
fn workers(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Splits `items` into at most `threads` contiguous chunks (`0` = one per
/// available core), never more chunks than items, runs `f` on each, and
/// returns the results in input order. With one chunk (an empty slice
/// included) `f` runs on the calling thread and nothing is spawned;
/// otherwise each chunk gets a scoped worker, and a worker's panic is
/// resumed on the caller.
pub fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let chunks = workers(threads).min(items.len());
    if chunks <= 1 {
        return vec![f(items)];
    }
    let chunk_len = items.len().div_ceil(chunks);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn chunks_are_contiguous_in_input_order_and_capped_by_the_items() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 2, 3, 4, 7, 10, 64] {
            let chunks = map_chunks(&items, threads, <[usize]>::to_vec);
            assert!(
                chunks.len() <= threads.min(items.len()),
                "threads={threads}"
            );
            assert!(chunks.iter().all(|c| !c.is_empty()), "threads={threads}");
            assert_eq!(chunks.concat(), items, "threads={threads}");
        }
        let empty: [u8; 0] = [];
        assert_eq!(map_chunks(&empty, 4, <[u8]>::len), vec![0]);
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let record = |_: &[u8]| seen.lock().unwrap().push(std::thread::current().id());
        map_chunks(&[1, 2, 3], 1, record);
        map_chunks(&[1], 8, record);
        assert_eq!(*seen.lock().unwrap(), vec![caller, caller]);
    }

    #[test]
    fn zero_threads_means_one_worker_per_core() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(workers(0), cores);
        assert_eq!(workers(3), 3);
        let items = vec![0u8; 4 * cores];
        let calls = AtomicUsize::new(0);
        map_chunks(&items, 0, |_| calls.fetch_add(1, Ordering::Relaxed));
        assert_eq!(calls.into_inner(), cores);
    }

    #[test]
    #[should_panic(expected = "chunk 2 failed")]
    fn a_worker_panic_reaches_the_caller() {
        map_chunks(&[0, 1, 2, 3], 4, |c| {
            if c[0] == 2 {
                panic!("chunk 2 failed");
            }
        });
    }
}
