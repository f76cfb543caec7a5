//! Heap allocated by the per-request paths and the registration of a live
//! service, metered by a counting global allocator:
//!
//! * the first ingest of a registered user allocates only the state the
//!   user keeps from then on — its window's forward vector, whose false
//!   half is one `m`-vector before the window's event opens and which adds
//!   its true half (one more) when the event opens at `t = 1`; the session
//!   stores no posterior while that window carries its filter — plus a few
//!   KB of bookkeeping: no temporary `O(m)` vector;
//! * an enforcing release of an already-observed user allocates less than
//!   one `m`-vector per guard attempt plus one: each attempt's candidate
//!   column, and no `2m` buffer per attempt (the windows are stepped once
//!   per release into kept buffers);
//! * registering a user with one template allocates one window slot, not
//!   the four `Vec`'s first growth reserves;
//! * a steady-state ingest of a windowed session evicts in place and
//!   allocates no window list.
//!
//! This lives in its own integration-test binary, and the crate-level
//! `forbid(unsafe_code)` applies to the library, not to this test crate (a
//! `GlobalAlloc` impl is necessarily `unsafe`). The allocator is
//! process-global, so it counts per thread: every metered call runs on its
//! test's own thread, and tests running side by side do not disturb each
//! other's counts.

use priste_event::{Presence, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::PlanarLaplace;
use priste_markov::{gaussian_kernel_chain_sparse, Homogeneous};
use priste_online::{OnlineConfig, SessionManager, UserId};
use priste_quantify::IncrementalTwoWorld;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Bytes this thread allocated, frees ignored; a growing `realloc`
    /// counts its growth.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// The allocation size [`count_sized`] watches for (0: none).
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    /// Allocations of exactly the watched size, `realloc` targets included.
    static WATCHED_HITS: Cell<usize> = const { Cell::new(0) };
}

/// Counts `size` new bytes on this thread, in a block now `block` bytes
/// long (they differ for a `realloc`'s growth).
fn record(size: usize, block: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + size));
    let _ = WATCHED.try_with(|w| {
        if w.get() != 0 && w.get() == block {
            let _ = WATCHED_HITS.try_with(|h| h.set(h.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only thread-local cells, never the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size.saturating_sub(layout.size()), new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Bytes `run` allocates on this thread, and its result.
fn allocated<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = run();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// How many blocks of exactly `size` bytes `run` allocates on this thread
/// (a `realloc` to that size included), and its result.
fn count_sized<T>(size: usize, run: impl FnOnce() -> T) -> (usize, T) {
    WATCHED_HITS.with(|h| h.set(0));
    WATCHED.with(|w| w.set(size));
    let out = run();
    WATCHED.with(|w| w.set(0));
    (WATCHED_HITS.with(Cell::get), out)
}

/// A session's window slot: a template index and its quantifier.
const WINDOW_SLOT: usize = std::mem::size_of::<(usize, IncrementalTwoWorld<Arc<Homogeneous>>)>();

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
    let event = |opens: usize| -> StEvent {
        Presence::new(Region::from_one_based_range(m, 1, m / 4).unwrap(), opens, 5)
            .unwrap()
            .into()
    };
    let mut svc = SessionManager::new(
        chain,
        OnlineConfig {
            num_shards: 1,
            budget: 1e6,
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    let template = svc.register_template(event(2)).unwrap();
    let users = [UserId(1), UserId(2), UserId(3)];
    for id in users {
        svc.add_user(id, Vector::uniform(m)).unwrap();
        svc.attach_event(id, template).unwrap();
    }
    let opening = svc.register_template(event(1)).unwrap();
    let opened_users = [UserId(4), UserId(5)];
    for id in opened_users {
        svc.add_user(id, Vector::uniform(m)).unwrap();
        svc.attach_event(id, opening).unwrap();
    }
    let column = |seed: usize| -> Vector {
        (0..m)
            .map(|i| 0.1 + ((i + seed) % 7) as f64 / 10.0)
            .collect()
    };
    let vector = m * std::mem::size_of::<f64>();

    // A first ingest warms the service's scratch; the second user's first
    // ingest is then metered. Its column is built beforehand. Before its
    // event opens (at t = 2) the window keeps its false half only; an
    // event that opens at t = 1 keeps both halves from the first ingest.
    // Either way the window carries the session's filter, so the session
    // stores no posterior.
    for (warm, metered, kept) in [
        (users[0], users[1], vector),
        (opened_users[0], opened_users[1], 2 * vector),
    ] {
        svc.ingest(warm, column(0)).unwrap();
        let col = column(1);
        let (bytes, report) = allocated(|| svc.ingest(metered, col).unwrap());
        assert_eq!(report.windows.len(), 1);
        assert!(
            bytes <= kept + BOOKKEEPING,
            "a first ingest allocated {bytes} B; it keeps {kept} B (its window's stored \
             halves) plus at most {BOOKKEEPING} B of bookkeeping",
        );
    }

    // Enforcing releases of an observed user: three warm-up releases (the
    // window's first observation, the step that opens its event, then a
    // step of both halves) size the service's step and staging buffers; the
    // next ones are metered while the window still runs.
    svc.enable_enforcement(
        Box::new(PlanarLaplace::new(grid, 2.0).unwrap()),
        Default::default(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..3 {
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

/// A 10×10 CSR world with one template per entry of `spans` (a PRESENCE
/// over the first quarter of the map, from `t = span.0` to `t = span.1`),
/// in memory, one shard.
fn small_service(spans: &[(usize, usize)]) -> (SessionManager<Arc<Homogeneous>>, usize) {
    let grid = GridMap::new(10, 10, 1.0).unwrap();
    let m = grid.num_cells();
    let chain = Arc::new(Homogeneous::new(
        gaussian_kernel_chain_sparse(&grid, 0.5).unwrap(),
    ));
    let mut svc = SessionManager::new(
        chain,
        OnlineConfig {
            num_shards: 1,
            budget: 1e6,
            ..OnlineConfig::default()
        },
    )
    .unwrap();
    for &(start, end) in spans {
        let region = Region::from_one_based_range(m, 1, m / 4).unwrap();
        let event: StEvent = Presence::new(region, start, end).unwrap().into();
        svc.register_template(event).unwrap();
    }
    (svc, m)
}

#[test]
fn registering_a_user_with_one_template_allocates_one_window_slot() {
    let (svc, m) = small_service(&[(2, 5)]);
    // A first user warms the (template, prior) start cache and the shard's
    // session map.
    svc.add_user(UserId(0), Vector::uniform(m)).unwrap();
    svc.attach_event(UserId(0), 0).unwrap();
    let users = 1_000;
    for u in 1..=users {
        svc.add_user(UserId(u), Vector::uniform(m)).unwrap();
    }
    let (bytes, ()) = allocated(|| {
        for u in 1..=users {
            svc.attach_event(UserId(u), 0).unwrap();
        }
    });
    let per_user = bytes / users as usize;
    assert_eq!(
        per_user, WINDOW_SLOT,
        "attaching one template allocated {per_user} B per user; one window slot is {WINDOW_SLOT} B"
    );
    assert_eq!(svc.num_users(), users as usize + 1);
}

#[test]
fn a_steady_state_ingest_allocates_no_window_list() {
    // Two windows that stay open through every ingest below.
    let (svc, m) = small_service(&[(2, 30), (3, 30)]);
    let id = UserId(1);
    svc.add_user(id, Vector::uniform(m)).unwrap();
    svc.attach_event(id, 0).unwrap();
    svc.attach_event(id, 1).unwrap();
    let column = |round: usize| -> Vector {
        (0..m)
            .map(|i| 0.1 + ((i + round) % 7) as f64 / 10.0)
            .collect()
    };
    // Two warm-up ingests give the session its own vectors and size the
    // shard's scratch.
    for round in 0..2 {
        svc.ingest(id, column(round)).unwrap();
    }
    let list = 2 * WINDOW_SLOT;
    for round in 2..10 {
        let col = column(round);
        let (lists, report) = count_sized(list, || svc.ingest(id, col).unwrap());
        assert_eq!(report.windows.len(), 2, "both windows are still open");
        assert_eq!(report.evicted, 0);
        assert_eq!(
            lists, 0,
            "ingest {round} allocated {lists} block(s) of {list} B, a two-window list"
        );
    }
}
