//! Experiment scale presets.

/// Workload sizing for one experiment invocation.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Synthetic grid side (paper: 20 → 400 cells).
    pub grid_side: usize,
    /// Timestamps per run (paper: 50).
    pub horizon: usize,
    /// Runs per parameter point (paper: 100).
    pub runs: usize,
    /// GeoLife-world grid side (paper-equivalent: 20).
    pub geolife_side: usize,
    /// GeoLife-world cell size in km (tuned so the map spans metro Beijing).
    pub geolife_cell_km: f64,
    /// Horizon for GeoLife experiments.
    pub geolife_horizon: usize,
    /// Base RNG seed; run `k` of a point uses `seed + k`.
    pub seed: u64,
}

impl Scale {
    /// Default scale: every figure's shape in minutes, not hours.
    pub fn default_scale() -> Self {
        Scale {
            grid_side: 10,
            horizon: 50,
            runs: 20,
            geolife_side: 12,
            geolife_cell_km: 1.0,
            geolife_horizon: 24,
            seed: 20190401,
        }
    }

    /// The paper's full workload (§V.A).
    pub fn paper() -> Self {
        Scale {
            grid_side: 20,
            horizon: 50,
            runs: 100,
            geolife_side: 20,
            geolife_cell_km: 1.0,
            geolife_horizon: 50,
            seed: 20190401,
        }
    }

    /// Tiny scale for the committed figure fixtures and CI smoke tests.
    pub fn smoke() -> Self {
        Scale {
            grid_side: 6,
            horizon: 16,
            runs: 3,
            geolife_side: 8,
            geolife_cell_km: 5.0,
            geolife_horizon: 12,
            seed: 20190401,
        }
    }

    /// Parses binary arguments: `--paper`, `--smoke`, `--runs N`, `--seed N`.
    ///
    /// # Panics
    /// Panics with a usage message on malformed arguments (binaries only).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut scale = Scale::default_scale();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => scale = Scale::paper(),
                "--smoke" => scale = Scale::smoke(),
                "--runs" => {
                    i += 1;
                    scale.runs = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--runs requires a number"));
                }
                "--seed" => {
                    i += 1;
                    scale.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed requires a number"));
                }
                other => panic!(
                    "unknown argument {other}; usage: [--paper|--smoke] [--runs N] [--seed N]"
                ),
            }
            i += 1;
        }
        scale
    }

    /// Number of cells of the synthetic grid.
    pub fn num_cells(&self) -> usize {
        self.grid_side * self.grid_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let s = Scale::smoke();
        let d = Scale::default_scale();
        let p = Scale::paper();
        assert!(s.num_cells() < d.num_cells());
        assert!(d.num_cells() < p.num_cells());
        assert!(s.runs < d.runs && d.runs < p.runs);
        assert_eq!(p.grid_side, 20);
        assert_eq!(p.horizon, 50);
        assert_eq!(p.runs, 100);
    }
}
