//! Structured two-possible-world transition steps (paper Eqs. (3)–(8)).
//!
//! The lifted state space doubles the map: indices `0..m` are the
//! EVENT-*false* world, `m..2m` the EVENT-*true* world (the paper's "top"
//! and "bottom" worlds of Figs. 4–5; `[π, 0]` starts all mass in the false
//! world, `[0, 1]ᵀ` sums the true world). Every lifted matrix is built from
//! `M` and a region diagonal, so applications decompose into a handful of
//! `m`-dimensional products — [`LiftedStep::apply_row`] and
//! [`LiftedStep::apply_col`] exploit that instead of materializing dense
//! `2m×2m` matrices. [`LiftedStep::to_dense`] materializes them anyway for
//! oracle tests.
//!
//! The base matrix is a backend-tagged [`TransitionMatrix`]: with a CSR
//! chain every application costs `O(nnz)` instead of `O(m²)`, which is what
//! lets the incremental quantifier and the streaming service run on
//! 10⁴-cell grids. The kernels write into preallocated buffers (no
//! `split_halves`/`concat` round-trips) and borrow the region's cached
//! indicator masks ([`Region::masks`]). [`LiftedStep::apply_row`] and
//! [`LiftedStep::apply_rows`] allocate only their output vectors; they
//! serve the offline replays and the benchmarks. The serving path never
//! calls them: the incremental quantifier steps a window once into a
//! caller-kept [`StepScratch`] and weighs emission columns against that
//! stepped row, so a steady-state observation or guard attempt allocates
//! nothing.

use priste_geo::Region;
use priste_linalg::scaling::ScaledVector;
use priste_linalg::{Matrix, Vector};
use priste_markov::TransitionMatrix;

/// Reusable buffers for one lifted row application and the emission
/// weighing after it: the two `m`-long halves a row is moved through `M`
/// in, the stepped `2m` row `β = α_t·M_t`, and the `2m` weighed forward
/// vector with the log scale it carries. It starts empty (`Default`), and
/// each buffer is sized on its first use and again only when `m` changes.
/// A batch driver keeps one and hands it to
/// [`IncrementalTwoWorld::observe_with_step`] for every window it advances;
/// the guard stages one per window with [`IncrementalTwoWorld::stage`] and
/// peeks every candidate through it. Either way a steady-state observation
/// or attempt allocates no `O(m)` buffer.
///
/// [`IncrementalTwoWorld::observe_with_step`]: crate::IncrementalTwoWorld::observe_with_step
/// [`IncrementalTwoWorld::stage`]: crate::IncrementalTwoWorld::stage
#[derive(Debug, Clone)]
pub struct StepScratch {
    half_f: Vec<f64>,
    half_t: Vec<f64>,
    pub(crate) stepped: Vec<f64>,
    pub(crate) weighed: ScaledVector,
    /// The window (its forward vector's address and age) `stepped` was
    /// staged for, if any.
    pub(crate) staged: Option<(usize, usize)>,
}

impl Default for StepScratch {
    fn default() -> Self {
        StepScratch {
            half_f: Vec::new(),
            half_t: Vec::new(),
            stepped: Vec::new(),
            weighed: ScaledVector::new(Vector::zeros(0)),
            staged: None,
        }
    }
}

/// One lifted transition step `M_t`, by shape.
#[derive(Debug, Clone)]
pub enum LiftedStep<'a> {
    /// Eq. (5)/(8): `[[M, 0], [0, M]]` — outside the event window both
    /// worlds evolve independently.
    BlockDiagonal {
        /// The base transition matrix.
        m: &'a TransitionMatrix,
    },
    /// Eq. (4)/(6): `[[M − M·s^D, M·s^D], [0, M]]` — transitions entering
    /// the region are re-directed from the false world into the true world
    /// (PRESENCE capture, and PATTERN's first step).
    Capture {
        /// The base transition matrix.
        m: &'a TransitionMatrix,
        /// The region whose entry flips the event true.
        region: &'a Region,
    },
    /// Eq. (7): `[[M, 0], [M − M·s^D, M·s^D]]` — inside a PATTERN window
    /// only transitions *staying* in the region sequence remain in the true
    /// world; all others fall back to the false world.
    Hold {
        /// The base transition matrix.
        m: &'a TransitionMatrix,
        /// The region required at the destination timestamp.
        region: &'a Region,
    },
}

impl LiftedStep<'_> {
    /// State-domain size `m` of the underlying map.
    pub fn base_states(&self) -> usize {
        match self {
            LiftedStep::BlockDiagonal { m }
            | LiftedStep::Capture { m, .. }
            | LiftedStep::Hold { m, .. } => m.rows(),
        }
    }

    /// The base transition matrix `M`.
    fn base(&self) -> &TransitionMatrix {
        match self {
            LiftedStep::BlockDiagonal { m }
            | LiftedStep::Capture { m, .. }
            | LiftedStep::Hold { m, .. } => m,
        }
    }

    /// Combines the moved halves `(u_f, u_t) = (x_f·M, x_t·M)` into the
    /// lifted output row for this step's shape — the shared tail of the
    /// single and batched row applications:
    ///
    /// * BlockDiagonal: `y = [u_f, u_t]`,
    /// * Capture: `y_f = u_f ∘ (1−s)`, `y_t = u_f ∘ s + u_t`,
    /// * Hold: `y_f = u_f + u_t ∘ (1−s)`, `y_t = u_t ∘ s`.
    ///
    /// Region masks are borrowed from the region's cache; `out` must not
    /// alias the inputs.
    fn combine_moved_into(&self, uf: &[f64], ut: &[f64], out: &mut [f64]) {
        let n = uf.len();
        let (out_f, out_t) = out.split_at_mut(n);
        match self {
            LiftedStep::BlockDiagonal { .. } => {
                out_f.copy_from_slice(uf);
                out_t.copy_from_slice(ut);
            }
            LiftedStep::Capture { region, .. } => {
                let (s, not_s) = region.masks();
                for i in 0..n {
                    out_f[i] = uf[i] * not_s[i];
                    out_t[i] = uf[i] * s[i] + ut[i];
                }
            }
            LiftedStep::Hold { region, .. } => {
                let (s, not_s) = region.masks();
                for i in 0..n {
                    out_f[i] = uf[i] + ut[i] * not_s[i];
                    out_t[i] = ut[i] * s[i];
                }
            }
        }
    }

    /// One row application written into caller-provided storage: moves both
    /// halves of `x` through `M` (into the `buf_*` scratch slices, each of
    /// length `m`) and recombines into `out` (length `2m`).
    fn apply_row_into(&self, x: &[f64], buf_f: &mut [f64], buf_t: &mut [f64], out: &mut [f64]) {
        let n = self.base_states();
        let m = self.base();
        m.vecmat_into(&x[..n], buf_f);
        m.vecmat_into(&x[n..], buf_t);
        self.combine_moved_into(buf_f, buf_t, out);
    }

    /// [`LiftedStep::apply_row`] into `scratch.stepped` (sized to `2m`
    /// here), moving the halves through `scratch`'s own buffers. Clears
    /// the scratch's staging mark.
    ///
    /// # Panics
    /// Panics if `x.len() != 2m`.
    pub(crate) fn apply_row_scratch(&self, x: &[f64], scratch: &mut StepScratch) {
        let n = self.base_states();
        assert_eq!(x.len(), 2 * n, "lifted row vector length mismatch");
        if scratch.half_f.len() != n {
            scratch.half_f = vec![0.0; n];
            scratch.half_t = vec![0.0; n];
            scratch.stepped = vec![0.0; 2 * n];
        }
        scratch.staged = None;
        self.apply_row_into(
            x,
            &mut scratch.half_f,
            &mut scratch.half_t,
            &mut scratch.stepped,
        );
    }

    /// Row-vector application `x · M_t` for a lifted row vector
    /// `x = [x_false, x_true]` of length `2m` — the forward orientation of
    /// Lemma III.1/III.2 products. (Capture: `y_f = x_f·(M − M·s^D)`,
    /// `y_t = x_f·M·s^D + x_t·M`; Hold mirrored — the two event modes
    /// share one private recombination helper.)
    ///
    /// # Panics
    /// Panics if `x.len() != 2m`.
    pub fn apply_row(&self, x: &Vector) -> Vector {
        let n = self.base_states();
        assert_eq!(x.len(), 2 * n, "lifted row vector length mismatch");
        let mut buf_f = vec![0.0; n];
        let mut buf_t = vec![0.0; n];
        let mut out = vec![0.0; 2 * n];
        self.apply_row_into(x.as_slice(), &mut buf_f, &mut buf_t, &mut out);
        Vector::from(out)
    }

    /// Batched row application: `xs[i] · M_t` for many lifted row vectors at
    /// once — the streaming service's "one shared step per timestep" path.
    /// Each vector's halves are pushed through `M` into two reused scratch
    /// buffers and recombined directly into that vector's output storage:
    /// per batch the only allocations are the `k` output vectors themselves
    /// (no half-splitting copies, no stacked intermediate matrices).
    /// Equivalent to mapping [`LiftedStep::apply_row`].
    ///
    /// # Panics
    /// Panics if any input has length `!= 2m`.
    pub fn apply_rows(&self, xs: &[Vector]) -> Vec<Vector> {
        let n = self.base_states();
        if xs.is_empty() {
            return Vec::new();
        }
        let mut buf_f = vec![0.0; n];
        let mut buf_t = vec![0.0; n];
        xs.iter()
            .map(|x| {
                assert_eq!(x.len(), 2 * n, "lifted row vector length mismatch");
                let mut out = vec![0.0; 2 * n];
                self.apply_row_into(x.as_slice(), &mut buf_f, &mut buf_t, &mut out);
                Vector::from(out)
            })
            .collect()
    }

    /// Column-vector application `M_t · v` for a lifted column vector of
    /// length `2m` — the suffix-product orientation of Lemma III.1's
    /// `∏ M_i [0,1]ᵀ` and the right-to-left chains of Theorem IV.1.
    ///
    /// # Panics
    /// Panics if `v.len() != 2m`.
    pub fn apply_col(&self, v: &Vector) -> Vector {
        let n = self.base_states();
        assert_eq!(v.len(), 2 * n, "lifted column vector length mismatch");
        let (vf, vt) = v.as_slice().split_at(n);
        let mut out = vec![0.0; 2 * n];
        let (out_f, out_t) = out.split_at_mut(n);
        match self {
            LiftedStep::BlockDiagonal { m } => {
                m.matvec_into(vf, out_f);
                m.matvec_into(vt, out_t);
            }
            LiftedStep::Capture { m, region } => {
                // row_f = (M − Ms^D)v_f + Ms^D v_t = M·(v_f∘(1−s) + v_t∘s)
                // row_t = M·v_t
                let (s, not_s) = region.masks();
                let mixed: Vec<f64> = (0..n).map(|i| vf[i] * not_s[i] + vt[i] * s[i]).collect();
                m.matvec_into(&mixed, out_f);
                m.matvec_into(vt, out_t);
            }
            LiftedStep::Hold { m, region } => {
                // row_f = M·v_f
                // row_t = (M − Ms^D)v_f + Ms^D v_t = M·(v_f∘(1−s) + v_t∘s)
                let (s, not_s) = region.masks();
                let mixed: Vec<f64> = (0..n).map(|i| vf[i] * not_s[i] + vt[i] * s[i]).collect();
                m.matvec_into(vf, out_f);
                m.matvec_into(&mixed, out_t);
            }
        }
        Vector::from(out)
    }

    /// Materializes the dense `2m×2m` matrix (paper Eqs. (4)–(8) verbatim).
    /// Test/diagnostic path — production code uses the structured
    /// applications. Sparse-backed steps densify their base first.
    pub fn to_dense(&self) -> Matrix {
        let n = self.base_states();
        let zero = Matrix::zeros(n, n);
        let base = self.base().to_dense_matrix();
        match self {
            LiftedStep::BlockDiagonal { .. } => {
                Matrix::from_blocks(&base, &zero, &zero, &base).expect("blocks are square")
            }
            LiftedStep::Capture { region, .. } => {
                let msd = base
                    .scale_cols(&region.indicator())
                    .expect("diag length matches");
                let tl = base.sub(&msd).expect("shapes match");
                Matrix::from_blocks(&tl, &msd, &zero, &base).expect("blocks are square")
            }
            LiftedStep::Hold { region, .. } => {
                let msd = base
                    .scale_cols(&region.indicator())
                    .expect("diag length matches");
                let bl = base.sub(&msd).expect("shapes match");
                Matrix::from_blocks(&base, &zero, &bl, &msd).expect("blocks are square")
            }
        }
    }
}

/// Lifts an emission column to the doubled space: observations are emitted
/// identically in both worlds (§III.C: "the emission probability … is
/// independent from any EVENTS"), so the lifted diagonal is `[e, e]`.
pub fn lift_emission(e: &Vector) -> Vector {
    e.concat(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use priste_geo::CellId;
    use priste_linalg::SparseMatrix;

    fn m3() -> TransitionMatrix {
        // Paper Example III.1 Eq. (2).
        TransitionMatrix::Dense(
            Matrix::from_rows(&[
                vec![0.1, 0.2, 0.7],
                vec![0.4, 0.1, 0.5],
                vec![0.0, 0.1, 0.9],
            ])
            .unwrap(),
        )
    }

    fn m3_sparse() -> TransitionMatrix {
        TransitionMatrix::Sparse(SparseMatrix::from_dense(
            m3().as_dense().expect("dense fixture"),
            0.0,
        ))
    }

    fn region12() -> Region {
        Region::from_cells(3, [CellId(0), CellId(1)]).unwrap()
    }

    #[test]
    fn capture_dense_matches_paper_example_c1() {
        // Example C.1 prints M2/M3 (capture, left) and M1/M4/M5 (diagonal).
        let m = m3();
        let r = region12();
        let capture = LiftedStep::Capture { m: &m, region: &r }.to_dense();
        let expected = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.7, 0.1, 0.2, 0.0],
            vec![0.0, 0.0, 0.5, 0.4, 0.1, 0.0],
            vec![0.0, 0.0, 0.9, 0.0, 0.1, 0.0],
            vec![0.0, 0.0, 0.0, 0.1, 0.2, 0.7],
            vec![0.0, 0.0, 0.0, 0.4, 0.1, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 0.1, 0.9],
        ])
        .unwrap();
        assert!(capture.max_abs_diff(&expected) < 1e-15);

        let diag = LiftedStep::BlockDiagonal { m: &m }.to_dense();
        let expected_diag = Matrix::from_rows(&[
            vec![0.1, 0.2, 0.7, 0.0, 0.0, 0.0],
            vec![0.4, 0.1, 0.5, 0.0, 0.0, 0.0],
            vec![0.0, 0.1, 0.9, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.1, 0.2, 0.7],
            vec![0.0, 0.0, 0.0, 0.4, 0.1, 0.5],
            vec![0.0, 0.0, 0.0, 0.0, 0.1, 0.9],
        ])
        .unwrap();
        assert!(diag.max_abs_diff(&expected_diag) < 1e-15);
    }

    #[test]
    fn all_shapes_stay_row_stochastic() {
        let m = m3();
        let r = region12();
        for step in [
            LiftedStep::BlockDiagonal { m: &m },
            LiftedStep::Capture { m: &m, region: &r },
            LiftedStep::Hold { m: &m, region: &r },
        ] {
            step.to_dense().validate_stochastic().unwrap();
        }
    }

    #[test]
    fn structured_row_application_matches_dense() {
        let r = region12();
        let x = Vector::from(vec![0.1, 0.2, 0.3, 0.05, 0.15, 0.2]);
        for m in [m3(), m3_sparse()] {
            for step in [
                LiftedStep::BlockDiagonal { m: &m },
                LiftedStep::Capture { m: &m, region: &r },
                LiftedStep::Hold { m: &m, region: &r },
            ] {
                let fast = step.apply_row(&x);
                let dense = step.to_dense().vecmat(&x);
                assert!(fast.max_abs_diff(&dense) < 1e-14, "shape {step:?}");
            }
        }
    }

    #[test]
    fn batched_row_application_matches_singles() {
        let r = region12();
        let xs = vec![
            Vector::from(vec![0.1, 0.2, 0.3, 0.05, 0.15, 0.2]),
            Vector::from(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
            Vector::from(vec![0.3, 0.1, 0.0, 0.2, 0.2, 0.2]),
        ];
        for m in [m3(), m3_sparse()] {
            for step in [
                LiftedStep::BlockDiagonal { m: &m },
                LiftedStep::Capture { m: &m, region: &r },
                LiftedStep::Hold { m: &m, region: &r },
            ] {
                let batched = step.apply_rows(&xs);
                assert_eq!(batched.len(), xs.len());
                for (x, y) in xs.iter().zip(&batched) {
                    let single = step.apply_row(x);
                    assert!(y.max_abs_diff(&single) < 1e-14, "shape {step:?}");
                }
                assert!(step.apply_rows(&[]).is_empty());
            }
        }
    }

    #[test]
    fn structured_col_application_matches_dense() {
        let r = region12();
        let v = Vector::from(vec![0.3, 0.1, 0.9, 1.0, 0.0, 0.5]);
        for m in [m3(), m3_sparse()] {
            for step in [
                LiftedStep::BlockDiagonal { m: &m },
                LiftedStep::Capture { m: &m, region: &r },
                LiftedStep::Hold { m: &m, region: &r },
            ] {
                let fast = step.apply_col(&v);
                let dense = step.to_dense().matvec(&v);
                assert!(fast.max_abs_diff(&dense) < 1e-14, "shape {step:?}");
            }
        }
    }

    #[test]
    fn sparse_and_dense_backends_agree_bitwise() {
        let dense = m3();
        let sparse = m3_sparse();
        let r = region12();
        let x = Vector::from(vec![0.1, 0.2, 0.3, 0.05, 0.15, 0.2]);
        for (d, s) in [
            (
                LiftedStep::Capture {
                    m: &dense,
                    region: &r,
                },
                LiftedStep::Capture {
                    m: &sparse,
                    region: &r,
                },
            ),
            (
                LiftedStep::Hold {
                    m: &dense,
                    region: &r,
                },
                LiftedStep::Hold {
                    m: &sparse,
                    region: &r,
                },
            ),
        ] {
            assert_eq!(d.apply_row(&x).as_slice(), s.apply_row(&x).as_slice());
            assert_eq!(d.apply_col(&x).as_slice(), s.apply_col(&x).as_slice());
        }
    }

    #[test]
    fn capture_redirects_mass_into_true_world() {
        let m = m3();
        let r = region12();
        let step = LiftedStep::Capture { m: &m, region: &r };
        // All mass on s3, false world. After one step, transitions into
        // {s1, s2} (prob 0 + 0.1) land in the true world.
        let x = Vector::from(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        let y = step.apply_row(&x);
        let (yf, yt) = y.split_halves();
        assert!((yt.sum() - 0.1).abs() < 1e-12);
        assert!((yf.sum() - 0.9).abs() < 1e-12);
        // True-world mass never returns to false world under capture.
        let x_true = Vector::from(vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let (yf2, yt2) = step.apply_row(&x_true).split_halves();
        assert_eq!(yf2.sum(), 0.0);
        assert!((yt2.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hold_drops_mass_leaving_the_region() {
        let m = m3();
        let r = region12();
        let step = LiftedStep::Hold { m: &m, region: &r };
        // True-world mass on s2: transitions to s3 (0.5) fall back to the
        // false world, transitions to {s1,s2} (0.4 + 0.1) stay true.
        let x = Vector::from(vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let (yf, yt) = step.apply_row(&x).split_halves();
        assert!((yt.sum() - 0.5).abs() < 1e-12);
        assert!((yf.sum() - 0.5).abs() < 1e-12);
        // False-world mass can never (re-)enter the true world under hold.
        let xf = Vector::from(vec![0.3, 0.3, 0.4, 0.0, 0.0, 0.0]);
        let (_, yt2) = step.apply_row(&xf).split_halves();
        assert_eq!(yt2.sum(), 0.0);
    }

    #[test]
    fn lift_emission_duplicates() {
        let e = Vector::from(vec![0.5, 0.2, 0.3]);
        assert_eq!(
            lift_emission(&e).as_slice(),
            &[0.5, 0.2, 0.3, 0.5, 0.2, 0.3]
        );
    }
}
