//! Heap allocated by the two per-request paths of a live service at
//! `m = 2500`, metered by a counting global allocator:
//!
//! * the first ingest of a registered user allocates only the state the
//!   user keeps from then on — its own posterior (one `m`-vector) and its
//!   window's forward vector (one `2m`-vector) — plus a few KB of
//!   bookkeeping: no temporary `O(m)` vector;
//! * an enforcing release of an already-observed user allocates less than
//!   one `m`-vector per guard attempt plus one: each attempt's candidate
//!   column, and no `2m` buffer per attempt (the windows are stepped once
//!   per release into kept buffers).
//!
//! This lives in its own integration-test binary: the allocator is
//! process-global, so both measurements run in one test, one after the
//! other, and the crate-level `forbid(unsafe_code)` applies to the library,
//! not to this test crate (a `GlobalAlloc` impl is necessarily `unsafe`).

use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain_sparse, Homogeneous};
use priste_online::{OnlineConfig, SessionManager, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAllocator;

/// Bytes allocated, frees ignored; a growing `realloc` counts its growth.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only an atomic, never the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes `run` allocates, and its result.
fn allocated<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.load(Ordering::SeqCst);
    let out = run();
    (ALLOCATED.load(Ordering::SeqCst) - before, out)
}

/// Allowance for the per-request bookkeeping (reports, batch maps, `Arc`
/// headers): far below one `m`-vector (20 000 bytes) at `m = 2500`.
const BOOKKEEPING: usize = 4096;

#[test]
fn first_ingest_keeps_what_it_allocates_and_releases_allocate_no_2m_per_attempt() {
    let side = 50;
    let grid = GridMap::new(side, side, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = Arc::new(Homogeneous::new(
        gaussian_kernel_chain_sparse(&grid, 0.5).unwrap(),
    ));
    let event: StEvent = Presence::new(Region::from_one_based_range(m, 1, m / 4).unwrap(), 2, 5)
        .unwrap()
        .into();
    let mut svc = SessionManager::new(
        chain,
        OnlineConfig {
            num_shards: 1,
            budget: 1e6,
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    let template = svc.register_template(event).unwrap();
    let users = [UserId(1), UserId(2), UserId(3)];
    for id in users {
        svc.add_user(id, Vector::uniform(m)).unwrap();
        svc.attach_event(id, template).unwrap();
    }
    let column = |seed: usize| -> Vector {
        (0..m)
            .map(|i| 0.1 + ((i + seed) % 7) as f64 / 10.0)
            .collect()
    };
    let vector = m * std::mem::size_of::<f64>();

    // A first ingest warms the service's scratch; the second user's first
    // ingest is then metered. Its column is built beforehand.
    svc.ingest(users[0], column(0)).unwrap();
    let col = column(1);
    let (bytes, report) = allocated(|| svc.ingest(users[1], col).unwrap());
    assert_eq!(report.windows.len(), 1);
    assert!(
        bytes <= 3 * vector + BOOKKEEPING,
        "a first ingest allocated {bytes} B; it keeps one m-vector and one 2m-vector \
         ({} B) plus at most {BOOKKEEPING} B of bookkeeping",
        3 * vector
    );

    // Enforcing releases of an observed user: two warm-up releases (the
    // window's first observation, then its first step) size the service's
    // step and staging buffers; the next ones are metered while the window
    // still runs.
    svc.enable_enforcement(
        Box::new(PlanarLaplace::new(grid, 2.0).unwrap()),
        Default::default(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..2 {
        svc.release(users[2], CellId(0), &mut rng).unwrap();
    }
    for loc in [CellId(0), CellId(m / 2)] {
        let (bytes, release) = allocated(|| svc.release(users[2], loc, &mut rng).unwrap());
        assert_eq!(release.report.windows.len(), 1, "the window is still open");
        let bound = (release.attempts + 1) * vector;
        assert!(
            bytes < bound,
            "a release of {} attempts allocated {bytes} B, not under {bound} B",
            release.attempts
        );
    }
}
