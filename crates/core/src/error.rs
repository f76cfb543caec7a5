use std::fmt;

/// Errors surfaced by the PriSTE framework.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A mechanism-layer failure.
    Lppm(priste_lppm::LppmError),
    /// A quantification-layer failure.
    Quantify(priste_quantify::QuantifyError),
    /// An event-layer failure.
    Event(priste_event::EventError),
    /// A Markov-layer failure.
    Markov(priste_markov::MarkovError),
    /// A geometry failure (distances, cells).
    Geo(priste_geo::GeoError),
    /// The configured event set was empty.
    NoEvents,
    /// The true location fed to a release was out of the state domain.
    LocationOutOfRange {
        /// Offending 0-based cell index.
        cell: usize,
        /// Domain size.
        num_cells: usize,
    },
    /// Configuration validation failure.
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Lppm(e) => write!(f, "mechanism error: {e}"),
            CoreError::Quantify(e) => write!(f, "quantification error: {e}"),
            CoreError::Event(e) => write!(f, "event error: {e}"),
            CoreError::Markov(e) => write!(f, "markov error: {e}"),
            CoreError::Geo(e) => write!(f, "geometry error: {e}"),
            CoreError::NoEvents => write!(f, "at least one spatiotemporal event is required"),
            CoreError::LocationOutOfRange { cell, num_cells } => {
                write!(f, "true location {cell} out of range for {num_cells} cells")
            }
            CoreError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lppm(e) => Some(e),
            CoreError::Quantify(e) => Some(e),
            CoreError::Event(e) => Some(e),
            CoreError::Markov(e) => Some(e),
            CoreError::Geo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<priste_lppm::LppmError> for CoreError {
    fn from(e: priste_lppm::LppmError) -> Self {
        CoreError::Lppm(e)
    }
}

/// The guard's ladder and loop fail in the layers below or on their
/// configuration; each failure keeps its variant here.
impl From<priste_calibrate::CalibrateError> for CoreError {
    fn from(e: priste_calibrate::CalibrateError) -> Self {
        use priste_calibrate::CalibrateError;
        match e {
            CalibrateError::Lppm(e) => CoreError::Lppm(e),
            CalibrateError::Quantify(e) => CoreError::Quantify(e),
            CalibrateError::InvalidConfig { message } => CoreError::InvalidConfig { message },
            e => CoreError::InvalidConfig {
                message: e.to_string(),
            },
        }
    }
}

impl From<priste_quantify::QuantifyError> for CoreError {
    fn from(e: priste_quantify::QuantifyError) -> Self {
        CoreError::Quantify(e)
    }
}

impl From<priste_event::EventError> for CoreError {
    fn from(e: priste_event::EventError) -> Self {
        CoreError::Event(e)
    }
}

impl From<priste_markov::MarkovError> for CoreError {
    fn from(e: priste_markov::MarkovError) -> Self {
        CoreError::Markov(e)
    }
}

impl From<priste_geo::GeoError> for CoreError {
    fn from(e: priste_geo::GeoError) -> Self {
        CoreError::Geo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = priste_lppm::LppmError::InvalidBudget { value: -1.0 }.into();
        assert!(e.to_string().contains("mechanism"));
        let e: CoreError = priste_event::EventError::EmptyRegion.into();
        assert!(e.to_string().contains("event"));
        assert!(CoreError::NoEvents.to_string().contains("event"));
    }
}
