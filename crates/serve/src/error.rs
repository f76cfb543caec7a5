//! Error type for the serving layer.

use crate::http::ReadError;
use priste_online::OnlineError;
use std::fmt;
use std::io;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// What can go wrong starting, running, or load-testing the daemon.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A transport failure (bind, accept, read, write).
    Io(io::Error),
    /// A service-layer failure surfaced outside request handling (drain
    /// checkpoint, startup registration).
    Online(OnlineError),
    /// A client-side protocol violation: the load generator or artifact
    /// reader received a response it could not understand.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Online(e) => write!(f, "service error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Online(e) => Some(e),
            ServeError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<OnlineError> for ServeError {
    fn from(e: OnlineError) -> Self {
        ServeError::Online(e)
    }
}

/// A response the client could not read: transport failures stay I/O,
/// everything else is a protocol violation.
impl From<ReadError> for ServeError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => ServeError::Io(e),
            other => ServeError::Protocol(other.to_string()),
        }
    }
}
