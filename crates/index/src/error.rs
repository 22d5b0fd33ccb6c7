//! Error type for the tile index.

use std::fmt;

use tilestore_geometry::GeometryError;

/// Errors raised by index operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// An underlying geometric operation failed.
    Geometry(GeometryError),
    /// An entry with mismatched dimensionality was inserted.
    DimensionMismatch {
        /// Dimensionality of the index.
        index: usize,
        /// Dimensionality of the entry.
        entry: usize,
    },
    /// Fanout below the minimum of 2.
    BadFanout {
        /// The offending fanout.
        fanout: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Geometry(e) => write!(f, "geometry error: {e}"),
            IndexError::DimensionMismatch { index, entry } => {
                write!(f, "index holds {index}-D entries, got {entry}-D")
            }
            IndexError::BadFanout { fanout } => {
                write!(f, "fanout {fanout} too small (minimum 2)")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeometryError> for IndexError {
    fn from(e: GeometryError) -> Self {
        IndexError::Geometry(e)
    }
}

/// Convenience result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;
