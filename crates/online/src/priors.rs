//! The service's table of shared initial distributions.
//!
//! Users registered with the same prior — by far the common case: a
//! service typically seeds everyone with one uniform or population prior —
//! would otherwise each hold an identical `O(m)` posterior plus, per
//! attached template, an identical lifted initial vector. The table interns
//! every registered prior by its **bits**, so those users share one
//! allocation, and caches each (prior, template) pair's [`WindowStart`] so
//! that attaching a template to an unobserved user is `O(1)`.
//!
//! Everything here is held by [`Weak`] reference: a prior (or a cached
//! start) that no session or window uses any more is freed, and its entry
//! is swept on a later intern. Entries are keyed by allocation address,
//! which the entry's own `Weak` keeps from being reused while the entry
//! exists.
//!
//! Registrations come in runs of one prior, so the table remembers the
//! prior it returned last (the *last hit*, also a [`Weak`]). An intern
//! first compares against it, bit for bit in one branch-free pass, and
//! hashes the registration only when it differs or is no longer alive:
//! a run of equal priors costs one compare per registration instead of a
//! hash and a compare.

use crate::durable::word_hash;
use priste_linalg::{LinalgError, Vector};
use priste_quantify::{QuantifyError, WeakWindowStart, WindowStart};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Sweep dead entries once the table has grown this much past its size
/// after the previous sweep, so upkeep stays amortized `O(1)` per intern.
const MIN_SWEEP: usize = 64;

#[derive(Debug)]
struct Entry {
    bits: u64,
    pi: Weak<Vector>,
    /// Cached window starts, indexed by template.
    starts: Vec<Option<WeakWindowStart>>,
}

/// Interned priors plus their per-template window starts.
#[derive(Debug, Default)]
pub(crate) struct PriorTable {
    /// Allocation address → entry.
    entries: HashMap<usize, Entry>,
    /// Hash of a prior's bits → addresses of the entries with that hash.
    by_bits: HashMap<u64, Vec<usize>>,
    /// Entries left after the last sweep.
    swept: usize,
    /// The prior the last intern returned (the last hit).
    last: Weak<Vector>,
}

/// Words compared per branch: the compare ORs the XOR of every pair of
/// words in a chunk and tests once, so it runs without a branch per word
/// and stops within one chunk of the first difference.
const SAME_BITS_CHUNK: usize = 64;

/// Whether two vectors are equal bit for bit (`-0.0 ≠ 0.0`).
pub(crate) fn same_bits(a: &Vector, b: &Vector) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .chunks(SAME_BITS_CHUNK)
            .zip(b.as_slice().chunks(SAME_BITS_CHUNK))
            .all(|(x, y)| {
                x.iter()
                    .zip(y)
                    .fold(0, |diff, (p, q)| diff | (p.to_bits() ^ q.to_bits()))
                    == 0
            })
}

fn address(pi: &Arc<Vector>) -> usize {
    Arc::as_ptr(pi) as usize
}

impl PriorTable {
    /// The shared allocation for `pi`: an existing live prior with the
    /// same bits, or `pi`'s own allocation, newly interned once it passes
    /// [`Vector::validate_distribution`]. Every interned prior is therefore
    /// a valid distribution, and a registration that matches one skips the
    /// check. The last hit is tried first, and the table is hashed only
    /// when it does not match.
    pub(crate) fn intern(&mut self, pi: Arc<Vector>) -> Result<Arc<Vector>, LinalgError> {
        if let Some(last) = self.last.upgrade() {
            if same_bits(&last, &pi) {
                return Ok(last);
            }
        }
        let bits = word_hash(pi.as_slice());
        if let Some(addrs) = self.by_bits.get(&bits) {
            for addr in addrs {
                if let Some(live) = self.entries[addr].pi.upgrade() {
                    if same_bits(&live, &pi) {
                        self.last = Arc::downgrade(&live);
                        return Ok(live);
                    }
                }
            }
        }
        pi.validate_distribution()?;
        self.last = Arc::downgrade(&pi);
        let addr = address(&pi);
        self.entries.insert(
            addr,
            Entry {
                bits,
                pi: Arc::downgrade(&pi),
                starts: Vec::new(),
            },
        );
        self.by_bits.entry(bits).or_default().push(addr);
        if self.entries.len() >= 2 * self.swept.max(MIN_SWEEP) {
            self.sweep();
        }
        Ok(pi)
    }

    /// The window start of `template` on `pi`. For an interned `pi` the
    /// first call builds the start with `build` and caches it; later calls
    /// clone the cached one while any window still holds it. Any other
    /// `pi` is simply built.
    pub(crate) fn start(
        &mut self,
        pi: &Arc<Vector>,
        template: usize,
        build: impl FnOnce() -> Result<WindowStart, QuantifyError>,
    ) -> Result<WindowStart, QuantifyError> {
        let Some(entry) = self.entries.get_mut(&address(pi)) else {
            return build();
        };
        if let Some(start) = entry
            .starts
            .get(template)
            .and_then(|cached| cached.as_ref()?.upgrade())
        {
            return Ok(start);
        }
        let start = build()?;
        if entry.starts.len() <= template {
            entry.starts.resize(template + 1, None);
        }
        entry.starts[template] = Some(start.downgrade());
        Ok(start)
    }

    /// Drops every entry whose prior no session or window holds.
    fn sweep(&mut self) {
        let by_bits = &mut self.by_bits;
        self.entries.retain(|addr, entry| {
            let live = entry.pi.strong_count() > 0;
            if !live {
                if let Some(addrs) = by_bits.get_mut(&entry.bits) {
                    addrs.retain(|a| a != addr);
                    if addrs.is_empty() {
                        by_bits.remove(&entry.bits);
                    }
                }
            }
            live
        });
        self.swept = self.entries.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_bits_share_and_signed_zeros_do_not() {
        let mut table = PriorTable::default();
        let a = table
            .intern(Arc::new(Vector::from(vec![0.0, 0.5, 0.5])))
            .unwrap();
        let b = table
            .intern(Arc::new(Vector::from(vec![0.0, 0.5, 0.5])))
            .unwrap();
        let negative = table
            .intern(Arc::new(Vector::from(vec![-0.0, 0.5, 0.5])))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &negative));
        assert_eq!(*a, *negative, "value-equal, bit-distinct");
        let again = table
            .intern(Arc::new(Vector::from(vec![0.0, 0.5, 0.5])))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        let negative_again = table
            .intern(Arc::new(Vector::from(vec![-0.0, 0.5, 0.5])))
            .unwrap();
        assert!(Arc::ptr_eq(&negative, &negative_again));
    }

    #[test]
    fn the_last_hit_returns_the_tables_arc() {
        let mut table = PriorTable::default();
        let first = table.intern(Arc::new(Vector::uniform(4))).unwrap();
        assert!(Weak::ptr_eq(&table.last, &Arc::downgrade(&first)));
        let hit = table.intern(Arc::new(Vector::uniform(4))).unwrap();
        assert!(Arc::ptr_eq(&first, &hit));
        // Another prior takes the last-hit slot; the first is then found
        // through the table, and is the last hit again.
        let other = table
            .intern(Arc::new(Vector::from(vec![0.4, 0.3, 0.2, 0.1])))
            .unwrap();
        assert!(Weak::ptr_eq(&table.last, &Arc::downgrade(&other)));
        let found = table.intern(Arc::new(Vector::uniform(4))).unwrap();
        assert!(Arc::ptr_eq(&first, &found));
        assert!(Weak::ptr_eq(&table.last, &Arc::downgrade(&first)));
    }

    #[test]
    fn a_dead_last_hit_falls_through_to_the_table() {
        let mut table = PriorTable::default();
        let kept = table.intern(Arc::new(Vector::uniform(3))).unwrap();
        let dropped = table
            .intern(Arc::new(Vector::from(vec![0.5, 0.25, 0.25])))
            .unwrap();
        let dead = Arc::as_ptr(&dropped);
        drop(dropped);
        assert!(table.last.upgrade().is_none());
        let found = table.intern(Arc::new(Vector::uniform(3))).unwrap();
        assert!(Arc::ptr_eq(&kept, &found));
        // The dead prior's bits intern afresh, as a new allocation.
        let fresh = Arc::new(Vector::from(vec![0.5, 0.25, 0.25]));
        let revived = table.intern(Arc::clone(&fresh)).unwrap();
        assert!(Arc::ptr_eq(&fresh, &revived));
        assert_ne!(Arc::as_ptr(&revived), dead);
    }

    /// The compare before chunking, one branch per word.
    fn same_bits_per_word(a: &Vector, b: &Vector) -> bool {
        a.len() == b.len()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn chunked_same_bits_matches_the_per_word_compare() {
        for len in 0..=200usize {
            let a = Vector::from((0..len).map(|i| i as f64 / 7.0).collect::<Vec<_>>());
            assert!(same_bits(&a, &a.clone()));
            let longer = Vector::from(
                a.as_slice()
                    .iter()
                    .copied()
                    .chain([0.0])
                    .collect::<Vec<_>>(),
            );
            assert!(!same_bits(&a, &longer));
            for pos in 0..len {
                let mut flipped = a.clone();
                let x = &mut flipped.as_mut_slice()[pos];
                *x = f64::from_bits(x.to_bits() ^ (1 << (pos % 64)));
                assert!(!same_bits_per_word(&a, &flipped));
                assert_eq!(same_bits(&a, &flipped), same_bits_per_word(&a, &flipped));
            }
        }
    }

    #[test]
    fn unused_priors_are_freed_and_swept() {
        let mut table = PriorTable::default();
        let kept = table.intern(Arc::new(Vector::uniform(4))).unwrap();
        for i in 0..10 * MIN_SWEEP {
            let p = (i + 1) as f64 / (20 * MIN_SWEEP) as f64;
            drop(
                table
                    .intern(Arc::new(Vector::from(vec![p, 1.0 - p, 0.0, 0.0])))
                    .unwrap(),
            );
        }
        assert!(table.entries.len() < 2 * MIN_SWEEP + 1);
        assert!(Arc::ptr_eq(
            &kept,
            &table.intern(Arc::new(Vector::uniform(4))).unwrap()
        ));
    }

    #[test]
    fn only_valid_distributions_are_interned() {
        let mut table = PriorTable::default();
        assert!(table
            .intern(Arc::new(Vector::from(vec![0.5, 0.6])))
            .is_err());
        assert!(table
            .intern(Arc::new(Vector::from(vec![1.5, -0.5])))
            .is_err());
        assert!(table.entries.is_empty());
    }
}
