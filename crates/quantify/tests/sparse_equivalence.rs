//! Sparse-vs-dense backend equivalence, property-tested.
//!
//! The CSR backend promises more than approximate agreement: a sparse twin
//! built with [`SparseMatrix::from_dense`] at threshold `0.0` iterates its
//! stored entries in the same order as the dense kernels, so every lifted
//! application is **bit-identical** — verified here over random banded
//! chains, all three [`LiftedStep`] shapes, and whole observation streams
//! through [`IncrementalTwoWorld`].

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::{Matrix, SparseMatrix, Vector};
use priste_markov::{Homogeneous, MarkovModel, TransitionMatrix};
use priste_quantify::lifted::LiftedStep;
use priste_quantify::{IncrementalTwoWorld, QuantifyError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random row-stochastic **banded** matrix of size `m` with
/// band radius `b` — every entry with `|i − j| > b` is structurally zero,
/// the shape [`gaussian_kernel_chain_sparse`] produces on a 1×m strip.
///
/// [`gaussian_kernel_chain_sparse`]: priste_markov::gaussian_kernel_chain_sparse
fn banded_stochastic(m: usize, b: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), m).prop_map(move |rows| {
        let mut mat = Matrix::zeros(m, m);
        for (i, weights) in rows.iter().enumerate() {
            let row = mat.row_mut(i);
            for (j, &w) in weights.iter().enumerate() {
                if i.abs_diff(j) <= b {
                    row[j] = w;
                }
            }
        }
        mat.normalize_rows_mut();
        mat
    })
}

/// Strategy: a random probability distribution of length `m`.
fn distribution(m: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.01f64..1.0, m).prop_map(|raw| {
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        v
    })
}

/// Strategy: a proper (non-empty, non-full) region over `m` cells.
fn region(m: usize) -> impl Strategy<Value = Region> {
    proptest::collection::vec(proptest::bool::ANY, m)
        .prop_filter("region must be proper", |bits| {
            let k = bits.iter().filter(|&&b| b).count();
            k > 0 && k < bits.len()
        })
        .prop_map(move |bits| {
            Region::from_cells(
                m,
                bits.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| CellId(i)),
            )
            .unwrap()
        })
}

/// Strategy: a random PRESENCE or PATTERN event over `m` cells.
fn st_event(m: usize) -> impl Strategy<Value = StEvent> {
    (1usize..=3, 1usize..=3, region(m), proptest::bool::ANY).prop_flat_map(
        move |(start, len, r, is_presence)| {
            let end = start + len - 1;
            if is_presence {
                Just(StEvent::from(Presence::new(r.clone(), start, end).unwrap())).boxed()
            } else {
                proptest::collection::vec(region(m), len)
                    .prop_map(move |rs| StEvent::from(Pattern::new(rs, start).unwrap()))
                    .boxed()
            }
        },
    )
}

fn random_emission(rng: &mut StdRng, m: usize) -> Vector {
    Vector::from(
        (0..m)
            .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three lifted shapes produce bit-identical rows, batches and
    /// columns on the CSR twin of a random banded chain.
    #[test]
    fn lifted_shapes_agree_bitwise_on_banded_chains(
        mat in banded_stochastic(5, 1),
        r in region(5),
        raw in proptest::collection::vec(0.0f64..1.0, 10),
    ) {
        let dense = TransitionMatrix::Dense(mat.clone());
        let sparse = TransitionMatrix::Sparse(SparseMatrix::from_dense(&mat, 0.0));
        prop_assert!(sparse.nnz() <= 5 * 3, "band escaped: {}", sparse.nnz());
        let x = Vector::from(raw);
        for (d, s) in [
            (LiftedStep::BlockDiagonal { m: &dense }, LiftedStep::BlockDiagonal { m: &sparse }),
            (
                LiftedStep::Capture { m: &dense, region: &r },
                LiftedStep::Capture { m: &sparse, region: &r },
            ),
            (
                LiftedStep::Hold { m: &dense, region: &r },
                LiftedStep::Hold { m: &sparse, region: &r },
            ),
        ] {
            prop_assert_eq!(d.apply_row(&x).as_slice(), s.apply_row(&x).as_slice());
            prop_assert_eq!(d.apply_col(&x).as_slice(), s.apply_col(&x).as_slice());
            let (db, sb) = (d.apply_rows(std::slice::from_ref(&x)), s.apply_rows(std::slice::from_ref(&x)));
            prop_assert_eq!(db[0].as_slice(), sb[0].as_slice());
            // And both match the materialized 2m×2m oracle numerically.
            prop_assert!(d.to_dense().vecmat(&x).max_abs_diff(&s.apply_row(&x)) < 1e-14);
        }
    }

    /// `from_dense` at threshold `t` keeps exactly the entries with
    /// `|v| > t` and `to_dense` restores them verbatim.
    #[test]
    fn from_dense_roundtrip(
        mat in banded_stochastic(6, 2),
        exact in proptest::bool::ANY,
        thresh in 1e-6f64..1e-1,
    ) {
        let tol = if exact { 0.0 } else { thresh };
        let sparse = SparseMatrix::from_dense(&mat, tol);
        let back = sparse.to_dense();
        let mut kept = 0usize;
        for i in 0..6 {
            for j in 0..6 {
                let v = mat.get(i, j);
                if v.abs() > tol {
                    prop_assert_eq!(back.get(i, j), v, "kept entry ({}, {})", i, j);
                    kept += 1;
                } else {
                    prop_assert_eq!(back.get(i, j), 0.0, "dropped entry ({}, {})", i, j);
                }
            }
        }
        prop_assert_eq!(sparse.nnz(), kept);
    }

    /// A full observation stream through [`IncrementalTwoWorld`] yields the
    /// same joints, posteriors and losses on the sparse backend as on the
    /// dense one (within 1e-12 — in practice bit-identical, but the public
    /// contract is the tolerance).
    #[test]
    fn incremental_streams_agree_across_backends(
        mat in banded_stochastic(5, 1),
        pi in distribution(5),
        ev in st_event(5),
        seed in 0u64..u64::MAX / 2,
    ) {
        let dense = Homogeneous::new(
            MarkovModel::from_transition_matrix(TransitionMatrix::Dense(mat.clone())).unwrap(),
        );
        let sparse = Homogeneous::new(
            MarkovModel::new_sparse(SparseMatrix::from_dense(&mat, 0.0)).unwrap(),
        );
        // A random event can be certain/impossible under a random chain —
        // no ratio to track on either backend. The shim inlines this body
        // into the per-case loop, so `continue` skips just this case.
        let mut inc_d = match IncrementalTwoWorld::new(ev.clone(), &dense, pi.clone()) {
            Ok(inc) => inc,
            Err(QuantifyError::DegeneratePrior { .. }) => continue,
            Err(e) => panic!("unexpected construction error: {e}"),
        };
        let mut inc_s = IncrementalTwoWorld::new(ev.clone(), &sparse, pi.clone())
            .expect("sparse twin has the identical prior");
        prop_assert!((inc_d.prior() - inc_s.prior()).abs() <= 1e-12);
        let mut rng = StdRng::seed_from_u64(seed);
        for t in 1..=ev.end() + 2 {
            let col = random_emission(&mut rng, 5);
            let sd = inc_d.observe(&col).unwrap();
            let ss = inc_s.observe(&col).unwrap();
            prop_assert_eq!(sd.t, ss.t);
            for (a, b, what) in [
                (sd.log_joint_event, ss.log_joint_event, "joint(E)"),
                (sd.log_joint_total, ss.log_joint_total, "joint(o)"),
                (sd.posterior, ss.posterior, "posterior"),
                (sd.privacy_loss, ss.privacy_loss, "privacy loss"),
            ] {
                prop_assert!(
                    (a - b).abs() <= 1e-12 || (a == f64::NEG_INFINITY && b == f64::NEG_INFINITY),
                    "t={} {}: dense {} vs sparse {} ({})", t, what, a, b, ev
                );
            }
            prop_assert!(
                inc_d.lifted_state().max_abs_diff(&inc_s.lifted_state()) <= 1e-12,
                "t={} lifted state diverged ({})", t, ev
            );
        }
    }
}
