//! Experiment implementations, one function per paper figure/table.
//!
//! All functions are pure with respect to their [`Scale`]: the same scale
//! and seed regenerate identical series, except Fig. 14 and Table III's
//! runtime column, which time the computation on the host.

use crate::output::Experiment;
use crate::scale::Scale;
use priste_core::runner::{self, Aggregate};
use priste_core::{DeltaLocSource, PlmSource, PristeConfig};
use priste_data::{geolife_sim, World};
use priste_event::{dsl::parse_event, Pattern, StEvent};
use priste_geo::{CellId, GridMap, Region};
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::{gaussian_kernel_chain, Homogeneous, MarkovModel};
use priste_qp::SolverConfig;
use priste_quantify::{naive, sweep, TheoremBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Builds the §V.A synthetic world at the experiment scale.
///
/// # Panics
/// Panics on construction failure (experiment configs are static).
pub fn synthetic_world(scale: &Scale, sigma: f64) -> (GridMap, MarkovModel) {
    let grid = GridMap::new(scale.grid_side, scale.grid_side, 1.0).expect("static grid");
    let chain = gaussian_kernel_chain(&grid, sigma).expect("static sigma");
    (grid, chain)
}

/// Builds the GeoLife-substitute world at the experiment scale.
///
/// # Panics
/// Panics on construction failure (experiment configs are static).
pub fn geolife_world(scale: &Scale) -> World {
    geolife_sim::build(&geolife_sim::CommuterConfig {
        rows: scale.geolife_side,
        cols: scale.geolife_side,
        cell_size_km: scale.geolife_cell_km,
        days: 40,
        steps_per_day: scale.geolife_horizon.max(12),
        seed: scale.seed,
        ..Default::default()
    })
    .expect("simulator config is valid")
}

/// The paper's event `PRESENCE(S={1:10}, T={start:end})`, with the region
/// scaled to one grid row at non-paper scales so the protected fraction of
/// the map stays comparable.
///
/// # Panics
/// Panics on parse failure (the spec is generated).
pub fn presence_event(scale: &Scale, start: usize, end: usize) -> StEvent {
    let width = if scale.grid_side >= 20 {
        10
    } else {
        scale.grid_side
    };
    parse_event(
        &format!("PRESENCE(S={{1:{width}}}, T={{{start}:{end}}})"),
        scale.num_cells(),
    )
    .expect("generated spec parses")
}

/// PATTERN analogue of [`presence_event`]: the same region at every
/// timestamp of the window (the appendix experiments' shape).
///
/// # Panics
/// Panics on construction failure.
pub fn pattern_event(scale: &Scale, start: usize, end: usize) -> StEvent {
    let width = if scale.grid_side >= 20 {
        10
    } else {
        scale.grid_side
    };
    let region = Region::from_one_based_range(scale.num_cells(), 1, width).expect("static range");
    Pattern::new(vec![region; end - start + 1], start)
        .expect("static pattern")
        .into()
}

fn epsilon_label(eps: f64) -> String {
    format!("eps={eps}")
}

fn alpha_label(alpha: f64) -> String {
    format!("{alpha}-PLM")
}

/// Runs Algorithm 2 for one parameter point and returns the aggregate.
///
/// # Panics
/// Panics on framework errors (the experiment worlds are well-formed).
pub fn run_plm_point(
    events: &[StEvent],
    grid: &GridMap,
    chain: &MarkovModel,
    alpha: f64,
    config: &PristeConfig,
    scale: &Scale,
    horizon: usize,
) -> Aggregate {
    let factory = {
        let grid = grid.clone();
        move || PlmSource::new(grid.clone(), alpha)
    };
    runner::run_many(
        events, chain, grid, config, &factory, horizon, scale.runs, scale.seed, 0,
    )
    .expect("experiment run")
}

/// Runs Algorithm 3 (δ-location-set) for one parameter point.
///
/// # Panics
/// Panics on framework errors.
#[allow(clippy::too_many_arguments)]
pub fn run_delta_point(
    events: &[StEvent],
    grid: &GridMap,
    chain: &MarkovModel,
    alpha: f64,
    delta: f64,
    config: &PristeConfig,
    scale: &Scale,
    horizon: usize,
) -> Aggregate {
    let factory = {
        let grid = grid.clone();
        let chain = chain.clone();
        let m = grid.num_cells();
        move || {
            DeltaLocSource::new(
                grid.clone(),
                delta,
                alpha,
                chain.clone(),
                Vector::uniform(m),
            )
        }
    };
    runner::run_many(
        events, chain, grid, config, &factory, horizon, scale.runs, scale.seed, 0,
    )
    .expect("experiment run")
}

/// Fig. 7: per-timestamp mean budget, event `T={4:8}`.
/// Panel (a): fixed 0.2-PLM across ε; panel (b): fixed ε=0.5 across α-PLMs.
pub fn fig7(scale: &Scale) -> Vec<Experiment> {
    presence_panels(
        scale,
        4,
        8,
        "fig7",
        "PRESENCE(S={1:10}, T={4:8}) on synthetic data",
    )
}

/// Fig. 8: same panels with the event window moved to `T={16:20}`.
pub fn fig8(scale: &Scale) -> Vec<Experiment> {
    presence_panels(
        scale,
        16,
        20,
        "fig8",
        "PRESENCE(S={1:10}, T={16:20}) on synthetic data",
    )
}

fn presence_panels(
    scale: &Scale,
    start: usize,
    end: usize,
    id: &str,
    caption: &str,
) -> Vec<Experiment> {
    let (grid, chain) = synthetic_world(scale, 1.0);
    let events = vec![presence_event(scale, start, end)];
    let x: Vec<f64> = (1..=scale.horizon).map(|t| t as f64).collect();

    let mut panel_a = Experiment::new(
        &format!("{id}a"),
        &format!("{caption} — 0.2-PLM for different ε"),
        "time",
        x.clone(),
    );
    for eps in [0.1, 0.5, 1.0] {
        let agg = run_plm_point(
            &events,
            &grid,
            &chain,
            0.2,
            &PristeConfig::with_epsilon(eps),
            scale,
            scale.horizon,
        );
        panel_a.push_series(epsilon_label(eps), agg.budget_by_t);
    }

    let mut panel_b = Experiment::new(
        &format!("{id}b"),
        &format!("{caption} — different PLMs for ε = 0.5"),
        "time",
        x,
    );
    for alpha in [0.1, 0.5, 1.0] {
        let agg = run_plm_point(
            &events,
            &grid,
            &chain,
            alpha,
            &PristeConfig::with_epsilon(0.5),
            scale,
            scale.horizon,
        );
        panel_b.push_series(alpha_label(alpha), agg.budget_by_t);
    }
    vec![panel_a, panel_b]
}

/// Fig. 9: protecting the Fig. 7 and Fig. 8 events *simultaneously*.
pub fn fig9(scale: &Scale) -> Vec<Experiment> {
    let (grid, chain) = synthetic_world(scale, 1.0);
    let events = vec![presence_event(scale, 4, 8), presence_event(scale, 16, 20)];
    let x: Vec<f64> = (1..=scale.horizon).map(|t| t as f64).collect();

    let mut panel_a = Experiment::new(
        "fig9a",
        "Two events T={4:8} and T={16:20} — 0.2-PLM for different ε",
        "time",
        x.clone(),
    );
    for eps in [0.1, 0.5, 1.0] {
        let agg = run_plm_point(
            &events,
            &grid,
            &chain,
            0.2,
            &PristeConfig::with_epsilon(eps),
            scale,
            scale.horizon,
        );
        panel_a.push_series(epsilon_label(eps), agg.budget_by_t);
    }
    let mut panel_b = Experiment::new(
        "fig9b",
        "Two events — different PLMs for ε = 0.5",
        "time",
        x,
    );
    for alpha in [0.1, 0.5, 1.0] {
        let agg = run_plm_point(
            &events,
            &grid,
            &chain,
            alpha,
            &PristeConfig::with_epsilon(0.5),
            scale,
            scale.horizon,
        );
        panel_b.push_series(alpha_label(alpha), agg.budget_by_t);
    }
    vec![panel_a, panel_b]
}

/// Appendix experiment: Fig. 7-style per-timestamp utility for a PATTERN
/// event ("the results of protecting PATTERN event are included in
/// Appendices").
pub fn fig_pattern(scale: &Scale) -> Vec<Experiment> {
    let (grid, chain) = synthetic_world(scale, 1.0);
    let events = vec![pattern_event(scale, 4, 8)];
    let x: Vec<f64> = (1..=scale.horizon).map(|t| t as f64).collect();
    let mut panel = Experiment::new(
        "fig_pattern",
        "PATTERN(S repeated, T={4:8}) on synthetic data — 0.2-PLM for different ε",
        "time",
        x,
    );
    for eps in [0.1, 0.5, 1.0] {
        let agg = run_plm_point(
            &events,
            &grid,
            &chain,
            0.2,
            &PristeConfig::with_epsilon(eps),
            scale,
            scale.horizon,
        );
        panel.push_series(epsilon_label(eps), agg.budget_by_t);
    }
    vec![panel]
}

/// Fig. 10: PriSTE with δ-location-set privacy (Algorithm 3), horizon 20.
pub fn fig10(scale: &Scale) -> Vec<Experiment> {
    let (grid, chain) = synthetic_world(scale, 1.0);
    let events = vec![presence_event(scale, 4, 8)];
    let horizon = 20.min(scale.horizon);
    let x: Vec<f64> = (1..=horizon).map(|t| t as f64).collect();
    let delta = 0.2;

    let mut panel_a = Experiment::new(
        "fig10a",
        "PRESENCE(T={4:8}), 0.2-PLM with δ=0.2 location-set privacy, varying ε",
        "time",
        x.clone(),
    );
    for eps in [0.1, 0.5, 1.0] {
        let agg = run_delta_point(
            &events,
            &grid,
            &chain,
            0.2,
            delta,
            &PristeConfig::with_epsilon(eps),
            scale,
            horizon,
        );
        panel_a.push_series(epsilon_label(eps), agg.budget_by_t);
    }
    let mut panel_b = Experiment::new(
        "fig10b",
        "Different PLMs with δ=0.2 location-set privacy at ε = 0.5",
        "time",
        x,
    );
    for alpha in [0.1, 0.5, 1.0] {
        let agg = run_delta_point(
            &events,
            &grid,
            &chain,
            alpha,
            delta,
            &PristeConfig::with_epsilon(0.5),
            scale,
            horizon,
        );
        panel_b.push_series(alpha_label(alpha), agg.budget_by_t);
    }
    vec![panel_a, panel_b]
}

/// Fig. 11: GeoLife(-substitute) data, α-PLM sweep × ε sweep; left panel
/// mean budget, right panel mean Euclidean distance (km).
pub fn fig11(scale: &Scale) -> Vec<Experiment> {
    let world = geolife_world(scale);
    let gl_scale = Scale {
        grid_side: scale.geolife_side,
        ..scale.clone()
    };
    let events = vec![presence_event(&gl_scale, 4, 8)];
    let eps_grid = [0.1, 0.5, 1.0, 2.0];
    let alphas = [0.5, 1.0, 3.0, 5.0];
    let x: Vec<f64> = eps_grid.to_vec();

    let mut budget_panel = Experiment::new(
        "fig11_budget",
        "GeoLife-sim: mean budgets of PLMs vs ε (PRESENCE T={4:8})",
        "epsilon",
        x.clone(),
    );
    let mut euclid_panel = Experiment::new(
        "fig11_euclid",
        "GeoLife-sim: mean Euclidean distance (km) of PLMs vs ε",
        "epsilon",
        x,
    );
    for &alpha in &alphas {
        let mut budgets = Vec::new();
        let mut dists = Vec::new();
        for &eps in &eps_grid {
            let agg = run_plm_point(
                &events,
                &world.grid,
                &world.chain,
                alpha,
                &PristeConfig::with_epsilon(eps),
                scale,
                scale.geolife_horizon,
            );
            budgets.push(agg.mean_budget);
            dists.push(agg.mean_euclid_km);
        }
        budget_panel.push_series(alpha_label(alpha), budgets);
        euclid_panel.push_series(alpha_label(alpha), dists);
    }
    vec![budget_panel, euclid_panel]
}

/// Fig. 12: GeoLife(-substitute), 0.5-PLM with δ-location-set privacy,
/// δ sweep × ε sweep.
pub fn fig12(scale: &Scale) -> Vec<Experiment> {
    let world = geolife_world(scale);
    let gl_scale = Scale {
        grid_side: scale.geolife_side,
        ..scale.clone()
    };
    let events = vec![presence_event(&gl_scale, 4, 8)];
    let eps_grid = [0.1, 1.0, 2.0, 3.0];
    let deltas = [0.1, 0.3, 0.5, 0.7];
    let x: Vec<f64> = eps_grid.to_vec();

    let mut budget_panel = Experiment::new(
        "fig12_budget",
        "GeoLife-sim: 0.5-PLM with δ-location-set privacy, mean budget vs ε",
        "epsilon",
        x.clone(),
    );
    let mut euclid_panel = Experiment::new(
        "fig12_euclid",
        "GeoLife-sim: 0.5-PLM with δ-location-set privacy, mean distance (km) vs ε",
        "epsilon",
        x,
    );
    for &delta in &deltas {
        let mut budgets = Vec::new();
        let mut dists = Vec::new();
        for &eps in &eps_grid {
            let agg = run_delta_point(
                &events,
                &world.grid,
                &world.chain,
                0.5,
                delta,
                &PristeConfig::with_epsilon(eps),
                scale,
                scale.geolife_horizon,
            );
            budgets.push(agg.mean_budget);
            dists.push(agg.mean_euclid_km);
        }
        budget_panel.push_series(format!("delta={delta}"), budgets);
        euclid_panel.push_series(format!("delta={delta}"), dists);
    }
    vec![budget_panel, euclid_panel]
}

/// Fig. 13: synthetic data, 1-PLM, transition-pattern strength sweep
/// (σ ∈ {0.01, 0.1, 1, 10}) × ε sweep.
pub fn fig13(scale: &Scale) -> Vec<Experiment> {
    let eps_grid = [0.1, 0.5, 1.0, 2.0];
    let sigmas = [0.01, 0.1, 1.0, 10.0];
    let x: Vec<f64> = eps_grid.to_vec();
    let mut budget_panel = Experiment::new(
        "fig13_budget",
        "Synthetic: 1-PLM mean budget vs ε across mobility-pattern strengths σ",
        "epsilon",
        x.clone(),
    );
    let mut euclid_panel = Experiment::new(
        "fig13_euclid",
        "Synthetic: 1-PLM mean distance (km) vs ε across σ",
        "epsilon",
        x,
    );
    for &sigma in &sigmas {
        let (grid, chain) = synthetic_world(scale, sigma);
        let events = vec![presence_event(scale, 4, 8)];
        let mut budgets = Vec::new();
        let mut dists = Vec::new();
        for &eps in &eps_grid {
            let agg = run_plm_point(
                &events,
                &grid,
                &chain,
                1.0,
                &PristeConfig::with_epsilon(eps),
                scale,
                scale.horizon,
            );
            budgets.push(agg.mean_budget);
            dists.push(agg.mean_euclid_km);
        }
        budget_panel.push_series(format!("sigma={sigma}"), budgets);
        euclid_panel.push_series(format!("sigma={sigma}"), dists);
    }
    vec![budget_panel, euclid_panel]
}

/// Fig. 14: runtime of the quantification — exponential baseline
/// (Algorithm 4) vs the two-possible-world method — against event length
/// (width 5) and event width (length 5).
///
/// The baseline visits `width^length` trajectories; points whose count
/// exceeds `baseline_cap` are reported as `NaN` (the paper plots them on a
/// log axis measured on their hardware; we measure what fits under the
/// `fig14` binary's cap).
pub fn fig14(scale: &Scale, baseline_cap: u128) -> Vec<Experiment> {
    let side = scale.grid_side.max(15);
    let grid = GridMap::new(side, side, 1.0).expect("static grid");
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("static sigma");
    let m = grid.num_cells();
    let plm = PlanarLaplace::new(grid, 1.0).expect("static alpha");

    let mut by_length = Experiment::new(
        "fig14_length",
        "Runtime (s) vs event length at width 5: baseline (PATTERN) vs PriSTE",
        "event length",
        (5..=15).map(|l| l as f64).collect(),
    );
    let mut base_series = Vec::new();
    let mut fast_series = Vec::new();
    for len in 5..=15 {
        let (b, f) = time_pattern_point(&chain, &plm, m, len, 5, 2, scale.seed, baseline_cap);
        base_series.push(b);
        fast_series.push(f);
    }
    by_length.push_series("baseline (Pattern)", base_series);
    by_length.push_series("PriSTE (Pattern)", fast_series);

    let mut by_width = Experiment::new(
        "fig14_width",
        "Runtime (s) vs event width at length 5: baseline (PATTERN) vs PriSTE",
        "event width",
        (5..=15).map(|w| w as f64).collect(),
    );
    let mut base_series = Vec::new();
    let mut fast_series = Vec::new();
    for width in 5..=15 {
        let (b, f) = time_pattern_point(&chain, &plm, m, 5, width, 2, scale.seed, baseline_cap);
        base_series.push(b);
        fast_series.push(f);
    }
    by_width.push_series("baseline (Pattern)", base_series);
    by_width.push_series("PriSTE (Pattern)", fast_series);

    vec![by_length, by_width]
}

/// Times one (length, width) point: both methods compute the same joint
/// probability `Pr(PATTERN, o_1..o_end)` for a fixed observation stream,
/// and their results must agree to within the baseline's rounding.
/// Returns `(baseline_seconds, priste_seconds)`; the baseline is `NaN` when
/// its trajectory count exceeds `cap`.
#[allow(clippy::too_many_arguments)]
fn time_pattern_point(
    chain: &MarkovModel,
    plm: &PlanarLaplace,
    m: usize,
    length: usize,
    width: usize,
    start: usize,
    seed: u64,
    cap: u128,
) -> (f64, f64) {
    let region = Region::from_one_based_range(m, 1, width).expect("width fits grid");
    let pattern = Pattern::new(vec![region; length], start).expect("static pattern");
    let event: StEvent = pattern.clone().into();
    let end = event.end();
    let provider = Homogeneous::new(chain.clone());
    let pi = Vector::uniform(m);

    // A fixed observation stream (released cells 1..end cycling over the map).
    let mut rng = StdRng::seed_from_u64(seed);
    let obs: Vec<CellId> = chain
        .sample_trajectory(CellId(0), end, &mut rng)
        .expect("sampling");
    let cols: Vec<Vector> = obs.iter().map(|&o| plm.emission_column(o)).collect();

    // PriSTE: incremental two-world joint over the full window.
    let t0 = Instant::now();
    let mut builder = TheoremBuilder::new(&event, &provider).expect("domains match");
    let mut fast_joint = 0.0;
    for (i, col) in cols.iter().enumerate() {
        let inputs = builder.candidate(col).expect("valid column");
        if i + 1 == cols.len() {
            fast_joint = pi.dot(&inputs.b).expect("length") * inputs.bc_log_scale.exp();
        }
        builder.commit(col.clone()).expect("valid column");
    }
    let fast_s = t0.elapsed().as_secs_f64();

    // Baseline: Algorithm 4 over the window, from the forward vector
    // filtered by the observations before it. Every point opens its window
    // at t = 2, so that prior is normalize(π∘e_{o₁}), and the baseline's
    // joint times its mass π·e_{o₁} is the same Pr(PATTERN, o_1..o_end).
    assert_eq!(start, 2, "the baseline prior filters o₁ alone");
    let count = (width as u128).saturating_pow(length as u32);
    let base_s = if count > cap {
        f64::NAN
    } else {
        let filtered = pi.hadamard(&cols[0]).expect("length");
        let mass = filtered.sum();
        let prior = filtered.normalized().expect("o₁ has positive probability");
        let t0 = Instant::now();
        let window_joint =
            naive::pattern_joint_algorithm4(&pattern, &provider, &prior, &cols[1..end], cap)
                .expect("within cap");
        let elapsed = t0.elapsed().as_secs_f64();
        // The baseline sums `count` trajectory products, so its rounding
        // error grows with `count`.
        let slow_joint = mass * window_joint;
        assert!(
            (slow_joint - fast_joint).abs() <= count as f64 * f64::EPSILON * fast_joint,
            "length {length}, width {width}: baseline {slow_joint} vs PriSTE {fast_joint}"
        );
        elapsed
    };
    (base_s, fast_s)
}

/// Ablation: HMM rescaling vs raw floating point in the quantification
/// chain.
///
/// The joint probabilities of Lemmas III.2/III.3 are products of `T`
/// sub-stochastic factors; raw `f64` evaluation underflows once
/// `ln Pr(o_1..o_t)` drops below ~−745. This runs a long horizon (at least
/// 400 steps on a 5×5 world) and reports, per timestep: the joint's log
/// value (finite throughout thanks to the scaled representation), the raw
/// `f64` the same value collapses to (0.0 once underflowed), and the
/// minimal certifiable ε — which stays computable arbitrarily far past the
/// underflow point because the Theorem IV.1 decision only consumes the
/// scale-invariant `(b, c)` pair. Without rescaling, b and c would both be
/// exactly 0.0 there and every decision would degenerate.
///
/// # Panics
/// Panics on construction failure (the configuration is static).
pub fn ablation_scaling(scale: &Scale) -> Experiment {
    // Small map, long horizon: underflow arrives fast.
    let grid = GridMap::new(5, 5, 1.0).expect("grid");
    let chain = gaussian_kernel_chain(&grid, 1.0).expect("chain");
    let event = parse_event("PRESENCE(S={1:5}, T={4:8})", 25).expect("event");
    let plm = PlanarLaplace::new(grid.clone(), 0.5).expect("plm");
    let mut builder = TheoremBuilder::new(&event, Homogeneous::new(chain)).expect("builder");
    let pi = Vector::uniform(25);
    let solver = SolverConfig::default();

    let horizon = 400.max(scale.horizon);
    let mut log_joint = Vec::new();
    let mut raw_joint = Vec::new();
    let mut min_eps = Vec::new();
    for t in 1..=horizon {
        let col = plm.emission_column(CellId((t * 3) % 25));
        let inputs = builder.candidate(&col).expect("candidate");
        let lj = inputs.log_joint_total(&pi);
        let cap = sweep::min_certifiable_epsilon(&inputs, 1e-4, 64.0, 1e-3, &solver);
        log_joint.push(lj);
        raw_joint.push(lj.exp()); // what raw f64 arithmetic would hold
        min_eps.push(cap.min_epsilon.unwrap_or(f64::NAN));
        builder.commit(col).expect("commit");
    }

    let mut exp = Experiment::new(
        "ablation_scaling",
        "Rescaled vs raw joint probability over a 400-step horizon (5×5 world, 0.5-PLM)",
        "time",
        (1..=horizon).map(|t| t as f64).collect(),
    );
    exp.push_series("log joint (scaled, finite)", log_joint);
    exp.push_series("raw f64 joint (underflows)", raw_joint);
    exp.push_series("min certifiable eps", min_eps);
    exp
}

/// Table III: conservative release under a QP work budget. The paper's
/// threshold is seconds of CPLEX time; here it is a fraction `f` of a
/// complete two-constraint check, which scans m(m+1) coordinate pairs, so
/// the x axis is `f` and each point runs with a budget of ⌈f·m(m+1)⌉ pairs.
/// The exact scan certifies nothing before it has seen every pair, so the
/// table is a step at `f` = 1 rather than the paper's graded curve. The
/// series are the table's columns; only the runtime one reads the clock.
pub fn table3(scale: &Scale) -> Experiment {
    let (grid, chain) = synthetic_world(scale, 1.0);
    let events = vec![presence_event(scale, 4, 8)];
    let fractions = vec![0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
    let m = grid.num_cells() as f64;
    let mut runtime_s = Vec::new();
    let mut conservative = Vec::new();
    let mut budgets = Vec::new();
    let mut euclids = Vec::new();
    for &f in &fractions {
        let mut config = PristeConfig::with_epsilon(0.5);
        config.qp_work_budget = Some((f * m * (m + 1.0)).ceil() as u64);
        let t0 = Instant::now();
        let agg = run_plm_point(&events, &grid, &chain, 0.2, &config, scale, scale.horizon);
        runtime_s.push(t0.elapsed().as_secs_f64() / scale.runs as f64);
        conservative.push(agg.mean_conservative_hits);
        budgets.push(agg.mean_budget);
        euclids.push(agg.mean_euclid_km);
    }
    let mut exp = Experiment::new(
        "table3",
        "Runtime vs QP work budget (0.2-PLM, ε=0.5): per-run runtime, conservative releases, budget, distance",
        "fraction of a complete check",
        fractions,
    );
    exp.push_series("ave total runtime (s)", runtime_s);
    exp.push_series("# conservative release", conservative);
    exp.push_series("ave privacy budget", budgets);
    exp.push_series("ave Euclidean dist (km)", euclids);
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_build_at_smoke_scale() {
        let scale = Scale::smoke();
        let (grid, chain) = synthetic_world(&scale, 1.0);
        assert_eq!(grid.num_cells(), scale.num_cells());
        chain.transition_matrix().validate_stochastic().unwrap();
        let world = geolife_world(&scale);
        assert_eq!(
            world.grid.num_cells(),
            scale.geolife_side * scale.geolife_side
        );
    }

    #[test]
    fn events_scale_with_grid() {
        let scale = Scale::smoke();
        let ev = presence_event(&scale, 2, 4);
        assert_eq!(ev.width(), scale.grid_side);
        assert_eq!((ev.start(), ev.end()), (2, 4));
        let paper = Scale::paper();
        let ev = presence_event(&paper, 4, 8);
        assert_eq!(ev.width(), 10);
        let pat = pattern_event(&scale, 4, 6);
        assert_eq!(pat.window_len(), 3);
    }

    #[test]
    fn fig7_smoke_has_expected_shape() {
        let mut scale = Scale::smoke();
        scale.runs = 2;
        scale.horizon = 10;
        let panels = fig7(&scale);
        assert_eq!(panels.len(), 2);
        assert_eq!(panels[0].series.len(), 3);
        assert_eq!(panels[0].x.len(), 10);
        // Budgets never exceed the base mechanism's.
        for s in &panels[0].series {
            for &b in &s.y {
                assert!((0.0..=0.2 + 1e-12).contains(&b), "budget {b}");
            }
        }
        // Larger ε keeps more budget on average.
        let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&panels[0].series[0].y) <= mean(&panels[0].series[2].y) + 1e-9);
    }

    #[test]
    fn fig14_smoke_runs_and_baseline_is_slower_at_scale() {
        let mut scale = Scale::smoke();
        scale.grid_side = 15;
        let panels = fig14(&scale, 1 << 22);
        assert_eq!(panels.len(), 2);
        let by_length = &panels[0];
        // Large lengths exceed the baseline cap → NaN; PriSTE always runs.
        let base = &by_length.series[0].y;
        let fast = &by_length.series[1].y;
        assert!(base.iter().any(|v| v.is_nan()));
        assert!(fast.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn table3_steps_at_a_complete_check() {
        let mut scale = Scale::smoke();
        scale.runs = 2;
        scale.horizon = 8;
        let exp = table3(&scale);
        let (conservative, budget) = (&exp.series[1].y, &exp.series[2].y);
        let last = exp.x.len() - 1;
        assert_eq!(exp.x[last], 1.0);
        // Short of a complete check nothing certifies; a complete one is
        // never conservative.
        for i in 0..last {
            assert_eq!(budget[i], 0.0, "f = {} kept budget", exp.x[i]);
            assert!(conservative[i] > 0.0, "f = {} was never cut off", exp.x[i]);
        }
        assert_eq!(conservative[last], 0.0, "a complete check was cut off");
        assert!(budget[last] > 0.0, "a complete check certified nothing");
    }
}
