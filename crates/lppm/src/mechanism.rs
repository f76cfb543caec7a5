use crate::Result;
use priste_geo::CellId;
use priste_linalg::{Matrix, Vector};
use rand::RngCore;

/// The paper's LPPM abstraction (§II.A): "the LPPM can be considered as an
/// emission matrix that takes user's true location as input and outputs a
/// perturbed one".
///
/// Implementations guarantee that [`Lppm::perturb`] samples exactly from the
/// row of [`Lppm::emission_matrix`] for the true cell, and that
/// [`Lppm::emission_column`] reads the same entries — the quantification
/// engine's privacy accounting is only sound if the matrix *is* the
/// mechanism, not an approximation of it.
///
/// `Send + Sync` are supertraits: a mechanism is immutable data, and
/// requiring thread-safety here is what lets `Box<dyn Lppm>` live inside
/// the `Send + Sync` streaming service and its parallel release path.
pub trait Lppm: Send + Sync {
    /// State-domain size `m`.
    fn num_cells(&self) -> usize;

    /// Current privacy budget (the α of α-PLM; mechanisms without a
    /// meaningful budget report the value they were constructed with).
    fn budget(&self) -> f64;

    /// The row-stochastic emission matrix: entry `(i, j)` is
    /// `Pr(o = s_j | u = s_i)`.
    ///
    /// This is `O(m²)` memory. Implementations with a compact
    /// representation may materialise it lazily on the first call (as
    /// [`crate::PlanarLaplace`] does); serving paths use
    /// [`Lppm::emission_column`] and [`Lppm::perturb`] instead.
    fn emission_matrix(&self) -> &Matrix;

    /// Emission column `p̃_o` for a given observation (paper Table I): the
    /// vector of `Pr(o | u = s_i)` over all true cells `s_i`. This is the
    /// quantity the Lemma III.2/III.3 recurrences consume.
    fn emission_column(&self, observation: CellId) -> Vector {
        self.emission_matrix().col(observation.index())
    }

    /// Samples a perturbed location for the given true location.
    ///
    /// # Panics
    /// Implementations may panic if `true_loc` is out of domain; callers
    /// inside the framework validate locations at the boundary.
    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId;

    /// Builds the *same family* of mechanism at a different budget — the
    /// hook Algorithm 2's exponential budget decay (`α ← α/2`) calls.
    ///
    /// # Errors
    /// [`crate::LppmError::InvalidBudget`] for non-positive budgets.
    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>>;
}

/// Samples an index from a normalized probability row, given as its entries
/// in order. Shared by all implementations so sampling semantics are
/// uniform: one uniform draw, scanned down the row; if rounding leaves the
/// draw unspent, the last positive entry (else the last entry) is returned.
pub(crate) fn sample_row<I>(row: I, rng: &mut dyn RngCore) -> usize
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    let row = row.into_iter();
    let mut u = rand::Rng::gen::<f64>(rng);
    let mut len = 0;
    for w in row.clone() {
        u -= w;
        if u <= 0.0 {
            return len;
        }
        len += 1;
    }
    row.enumerate()
        .filter(|&(_, w)| w > 0.0)
        .last()
        .map_or(len - 1, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_row_respects_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let row = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..200 {
            assert_eq!(sample_row(row, &mut rng), 2);
        }
    }

    #[test]
    fn sample_row_falls_back_to_the_last_positive_entry() {
        // The entries sum to far less than any draw, so the scan runs out.
        let mut rng = StdRng::seed_from_u64(3);
        let row = [1e-300, 0.0, 2e-300, 0.0];
        for _ in 0..50 {
            assert_eq!(sample_row(row, &mut rng), 2);
        }
    }

    #[test]
    fn sample_row_empirical_frequencies() {
        let mut rng = StdRng::seed_from_u64(2);
        let row = [0.25, 0.5, 0.25];
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_row(row, &mut rng)] += 1;
        }
        for (c, expect) in counts.iter().zip(row) {
            let f = *c as f64 / n as f64;
            assert!((f - expect).abs() < 0.02, "{f} vs {expect}");
        }
    }
}
