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
}

/// Word-wise hash of a vector's bits: `-0.0` and `0.0` hash apart. Four
/// independent lanes keep the multiply chain off the critical path.
fn hash_bits(v: &Vector) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    let chunks = v.as_slice().chunks_exact(4);
    let tail = chunks.remainder();
    let mut lanes = [v.len() as u64; 4];
    for chunk in chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = mix(*lane, x.to_bits());
        }
    }
    let h = lanes.into_iter().fold(0, mix);
    tail.iter().fold(h, |h, x| mix(h, x.to_bits()))
}

/// Whether two vectors are equal bit for bit (`-0.0 ≠ 0.0`).
pub(crate) fn same_bits(a: &Vector, b: &Vector) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn address(pi: &Arc<Vector>) -> usize {
    Arc::as_ptr(pi) as usize
}

impl PriorTable {
    /// The shared allocation for `pi`: an existing live prior with the
    /// same bits, or `pi`'s own allocation, newly interned once it passes
    /// [`Vector::validate_distribution`]. Every interned prior is therefore
    /// a valid distribution, and a registration that matches one skips the
    /// check.
    pub(crate) fn intern(&mut self, pi: Arc<Vector>) -> Result<Arc<Vector>, LinalgError> {
        let bits = hash_bits(&pi);
        if let Some(addrs) = self.by_bits.get(&bits) {
            for addr in addrs {
                if let Some(live) = self.entries[addr].pi.upgrade() {
                    if same_bits(&live, &pi) {
                        return Ok(live);
                    }
                }
            }
        }
        pi.validate_distribution()?;
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
