//! Error type for the network substrate.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetworkError>;

/// Errors raised by the simulated network and the reliable layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Sending to or polling an endpoint that was never registered.
    UnknownEndpoint { endpoint: String },
    /// An endpoint id was registered twice.
    DuplicateEndpoint { endpoint: String },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownEndpoint { endpoint } => write!(f, "unknown endpoint `{endpoint}`"),
            Self::DuplicateEndpoint { endpoint } => {
                write!(f, "endpoint `{endpoint}` already registered")
            }
        }
    }
}

impl std::error::Error for NetworkError {}
