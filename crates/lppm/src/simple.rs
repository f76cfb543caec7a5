//! The uniform baseline mechanism.

use crate::mechanism::{sample_row, Lppm};
use crate::Result;
use priste_geo::CellId;
use priste_linalg::Vector;
use rand::RngCore;

/// The uniform mechanism: every output cell is equally likely regardless of
/// the true location.
///
/// This is the `α → 0` limit of the Planar Laplace mechanism, and the reason
/// Algorithm 2's budget halving always terminates (§IV.C: "When α = 0, it
/// releases no useful information about the true location … Equations (15)
/// and (16) are always true in this situation"). Every entry is `1/m`, so
/// the mechanism keeps only `m`.
#[derive(Debug, Clone)]
pub struct UniformMechanism {
    num_cells: usize,
}

impl UniformMechanism {
    /// Builds the uniform mechanism over `num_cells` states.
    ///
    /// # Panics
    /// Panics if `num_cells == 0`.
    pub fn new(num_cells: usize) -> Self {
        assert!(num_cells > 0, "uniform mechanism over zero cells");
        UniformMechanism { num_cells }
    }
}

impl Lppm for UniformMechanism {
    fn num_cells(&self) -> usize {
        self.num_cells
    }

    fn budget(&self) -> f64 {
        0.0
    }

    fn emission_column(&self, _observation: CellId) -> Vector {
        Vector::uniform(self.num_cells)
    }

    fn perturb(&self, _true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let p = 1.0 / self.num_cells as f64;
        CellId(sample_row(std::iter::repeat_n(p, self.num_cells), rng))
    }

    fn with_budget(&self, _budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_rows_are_uniform() {
        let u = UniformMechanism::new(4);
        let e = crate::mechanism::dense_emission(&u);
        e.validate_stochastic().unwrap();
        for r in 0..4 {
            assert_eq!(e.row(r), &[0.25; 4]);
        }
        assert_eq!(u.budget(), 0.0);
    }

    #[test]
    fn uniform_perturb_ignores_input() {
        let u = UniformMechanism::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[u.perturb(CellId(2), &mut rng).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_cell_domain_is_degenerate_but_valid() {
        let u = UniformMechanism::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(u.perturb(CellId(0), &mut rng), CellId(0));
    }
}
