//! Parser and discretizer for the real GeoLife GPS dataset (Zheng et al.,
//! "GeoLife: a collaborative social networking service among user, location
//! and trajectory", IEEE Data Eng. Bull. 2010) — the paper's real-world
//! evaluation data (§V.A).
//!
//! The dataset ships one `.plt` file per trip:
//!
//! ```text
//! Geolife trajectory
//! WGS 84
//! Altitude is in Feet
//! Reserved 3
//! 0,2,255,My Track,0,0,2,8421376
//! 0
//! 39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04
//! …
//! ```
//!
//! Six header lines, then `lat,lon,0,altitude_ft,days_since_1899,date,time`
//! records. [`parse_plt`] extracts validated [`GpsPoint`]s;
//! [`discretize`] maps them onto a grid with a fixed resampling interval
//! (the paper's timestamps are model steps, so GPS streams are resampled to
//! one state per interval); [`build_world`] trains the Markov model from
//! many trips exactly as §V.A does with R's `markovchain`.

use crate::{DataError, Result, World};
use priste_geo::{CellId, GeoBounds, GpsPoint, GridMap};
use priste_markov::train_mle;

/// Number of header lines in a `.plt` file.
const PLT_HEADER_LINES: usize = 6;

/// Parses the contents of one `.plt` file into GPS fixes.
///
/// # Errors
/// [`DataError::PltParse`] with the offending line number on malformed
/// records; header lines are skipped without inspection (their content
/// varies across the dataset).
pub fn parse_plt(content: &str) -> Result<Vec<GpsPoint>> {
    let mut points = Vec::new();
    for (idx, line) in content.lines().enumerate() {
        if idx < PLT_HEADER_LINES {
            continue;
        }
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() < 5 {
            return Err(DataError::PltParse {
                line: line_no,
                message: format!("expected ≥5 comma-separated fields, got {}", fields.len()),
            });
        }
        let lat: f64 = fields[0].trim().parse().map_err(|_| DataError::PltParse {
            line: line_no,
            message: format!("bad latitude {:?}", fields[0]),
        })?;
        let lon: f64 = fields[1].trim().parse().map_err(|_| DataError::PltParse {
            line: line_no,
            message: format!("bad longitude {:?}", fields[1]),
        })?;
        let days: f64 = fields[4].trim().parse().map_err(|_| DataError::PltParse {
            line: line_no,
            message: format!("bad timestamp {:?}", fields[4]),
        })?;
        let point = GpsPoint::new(lat, lon, days * 86_400.0).map_err(|e| DataError::PltParse {
            line: line_no,
            message: e.to_string(),
        })?;
        points.push(point);
    }
    Ok(points)
}

/// Reads and parses a `.plt` file from disk.
///
/// # Errors
/// I/O and parse failures.
pub fn parse_plt_file(path: &std::path::Path) -> Result<Vec<GpsPoint>> {
    let content = std::fs::read_to_string(path)?;
    parse_plt(&content)
}

/// Discretizes a GPS stream onto a grid: fixes are bucketed into
/// consecutive windows of `interval_s` seconds and each window contributes
/// the cell of its last in-bounds fix. Out-of-bounds fixes and empty
/// windows are skipped (gaps split the trip into separate trajectory
/// segments so spurious long-range "transitions" never enter training).
pub fn discretize(
    points: &[GpsPoint],
    bounds: &GeoBounds,
    grid: &GridMap,
    interval_s: f64,
) -> Vec<Vec<CellId>> {
    assert!(interval_s > 0.0, "resampling interval must be positive");
    let mut segments: Vec<Vec<CellId>> = Vec::new();
    let mut current: Vec<CellId> = Vec::new();
    let mut window_start: Option<f64> = None;
    let mut window_cell: Option<CellId> = None;

    for p in points {
        let cell = bounds.to_cell(p, grid);
        match window_start {
            None => {
                window_start = Some(p.timestamp_s);
                window_cell = cell;
            }
            Some(start) => {
                let elapsed = p.timestamp_s - start;
                if elapsed < interval_s {
                    if cell.is_some() {
                        window_cell = cell;
                    }
                } else {
                    // Close the finished window.
                    match window_cell.take() {
                        Some(c) => current.push(c),
                        None => {
                            if current.len() >= 2 {
                                segments.push(std::mem::take(&mut current));
                            } else {
                                current.clear();
                            }
                        }
                    }
                    // Gaps longer than one interval also split the segment.
                    if elapsed >= 2.0 * interval_s && current.len() >= 2 {
                        segments.push(std::mem::take(&mut current));
                    } else if elapsed >= 2.0 * interval_s {
                        current.clear();
                    }
                    window_start = Some(p.timestamp_s);
                    window_cell = cell;
                }
            }
        }
    }
    if let Some(c) = window_cell {
        current.push(c);
    }
    if current.len() >= 2 {
        segments.push(current);
    }
    segments
}

/// Builds a world from many trips: discretize each, pool the segments, and
/// train the transition matrix by MLE with light smoothing (unvisited rows
/// fall back to uniform so the matrix stays stochastic).
///
/// # Errors
/// [`DataError::InsufficientData`] if no segment survives discretization.
pub fn build_world(
    trips: &[Vec<GpsPoint>],
    bounds: &GeoBounds,
    grid: GridMap,
    interval_s: f64,
    smoothing_alpha: f64,
) -> Result<World> {
    let mut segments: Vec<Vec<CellId>> = Vec::new();
    for trip in trips {
        segments.extend(discretize(trip, bounds, &grid, interval_s));
    }
    if segments.is_empty() {
        return Err(DataError::InsufficientData {
            message: "no trajectory segments survived discretization".into(),
        });
    }
    let chain = train_mle(grid.num_cells(), &segments, smoothing_alpha)?;
    Ok(World {
        grid,
        chain,
        trajectories: segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plt() -> String {
        // Two fixes 5 minutes apart inside Beijing, one outside the box.
        "Geolife trajectory\n\
         WGS 84\n\
         Altitude is in Feet\n\
         Reserved 3\n\
         0,2,255,My Track,0,0,2,8421376\n\
         0\n\
         39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n\
         39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10\n\
         55.0,10.0,0,0,39744.13,2008-10-23,03:07:12\n"
            .to_string()
    }

    #[test]
    fn parses_records_and_skips_header() {
        let points = parse_plt(&sample_plt()).unwrap();
        assert_eq!(points.len(), 3);
        assert!((points[0].lat - 39.984702).abs() < 1e-9);
        assert!((points[0].lon - 116.318417).abs() < 1e-9);
        // Timestamps convert from fractional days to seconds.
        let dt = points[1].timestamp_s - points[0].timestamp_s;
        assert!(
            (dt - 6.0).abs() < 0.5,
            "expected ~6s between fixes, got {dt}"
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let mut content = sample_plt();
        content.push_str("not,a,valid,record,xx\n");
        let err = parse_plt(&content).unwrap_err();
        match err {
            DataError::PltParse { line, .. } => assert_eq!(line, 10),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn coordinate_validation_is_enforced() {
        let content = "h\nh\nh\nh\nh\nh\n95.0,116.0,0,0,39744.0,2008-10-23,00:00:00\n";
        assert!(matches!(
            parse_plt(content),
            Err(DataError::PltParse { line: 7, .. })
        ));
    }

    #[test]
    fn discretize_buckets_and_drops_out_of_bounds() {
        let bounds = GeoBounds::beijing();
        let grid = GridMap::new(10, 10, 1.0).unwrap();
        // Three fixes: two in one window, one 10 minutes later; plus an
        // out-of-box fix that must not produce a cell.
        let mk = |lat: f64, lon: f64, t: f64| GpsPoint::new(lat, lon, t).unwrap();
        let points = vec![
            mk(39.9, 116.3, 0.0),
            mk(39.9, 116.31, 60.0),
            mk(39.91, 116.32, 330.0),
            mk(39.91, 116.33, 630.0),
        ];
        let segments = discretize(&points, &bounds, &grid, 300.0);
        assert_eq!(segments.len(), 1);
        assert!(segments[0].len() >= 2, "got {segments:?}");
    }

    #[test]
    fn long_gaps_split_segments() {
        let bounds = GeoBounds::beijing();
        let grid = GridMap::new(10, 10, 1.0).unwrap();
        let mk = |t: f64| GpsPoint::new(39.9, 116.3, t).unwrap();
        // Two clusters separated by three hours.
        let mut points: Vec<GpsPoint> = (0..5).map(|k| mk(k as f64 * 300.0)).collect();
        points.extend((0..5).map(|k| mk(11_000.0 + k as f64 * 300.0)));
        let segments = discretize(&points, &bounds, &grid, 300.0);
        assert!(segments.len() >= 2, "gap should split: {segments:?}");
    }

    #[test]
    fn build_world_trains_a_stochastic_chain() {
        let bounds = GeoBounds::beijing();
        let grid = GridMap::new(5, 5, 1.0).unwrap();
        let mk = |lat: f64, lon: f64, t: f64| GpsPoint::new(lat, lon, t).unwrap();
        // A slow west-to-east sweep across the box.
        let trip: Vec<GpsPoint> = (0..40)
            .map(|k| mk(39.9, 116.12 + 0.013 * k as f64, k as f64 * 300.0))
            .collect();
        let world = build_world(&[trip], &bounds, grid, 300.0, 0.01).unwrap();
        world
            .chain
            .transition_matrix()
            .validate_stochastic()
            .unwrap();
        assert!(!world.trajectories.is_empty());
    }

    #[test]
    fn build_world_requires_data() {
        let bounds = GeoBounds::beijing();
        let grid = GridMap::new(5, 5, 1.0).unwrap();
        assert!(matches!(
            build_world(&[], &bounds, grid, 300.0, 0.0),
            Err(DataError::InsufficientData { .. })
        ));
    }
}
