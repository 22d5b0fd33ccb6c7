//! Error type for the MDD storage engine.

use std::fmt;

use tilestore_geometry::GeometryError;
use tilestore_index::IndexError;
use tilestore_storage::StorageError;
use tilestore_tiling::TilingError;

/// Errors raised by the storage engine.
#[derive(Debug)]
pub enum EngineError {
    /// An underlying geometric operation failed.
    Geometry(GeometryError),
    /// A tiling algorithm failed.
    Tiling(TilingError),
    /// The storage substrate failed.
    Storage(StorageError),
    /// The tile index failed.
    Index(IndexError),
    /// An MDD object name that already exists.
    ObjectExists(String),
    /// An MDD object name that does not exist.
    UnknownObject(String),
    /// The array's cell size does not match the object's cell type.
    CellSizeMismatch {
        /// Cell size of the object's type.
        expected: usize,
        /// Cell size supplied.
        got: usize,
    },
    /// The array or query domain is not admitted by the object's
    /// definition domain.
    OutsideDefinitionDomain {
        /// The offending domain (display form).
        domain: String,
        /// The definition domain (display form).
        definition: String,
    },
    /// Inserted data overlaps cells already stored (tiles must stay
    /// disjoint).
    OverlapsExistingTiles {
        /// The offending domain (display form).
        domain: String,
    },
    /// A query against an object that holds no cells yet.
    EmptyObject(String),
    /// Data length does not match the domain/cell-size product.
    DataLengthMismatch {
        /// Bytes expected.
        expected: u64,
        /// Bytes supplied.
        got: u64,
    },
    /// An access region that cannot be resolved against the object.
    BadAccessRegion(String),
    /// Catalog (de)serialization failed.
    Catalog(String),
    /// A log-driven operation was requested but the database has no
    /// attached access recorder (in-memory databases record only the
    /// volatile in-process log).
    NoAccessRecorder,
    /// A retile scheme spec that does not parse for the object; the
    /// message is the spec parser's, aimed at whoever typed it.
    BadSpec(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Geometry(e) => write!(f, "geometry error: {e}"),
            EngineError::Tiling(e) => write!(f, "tiling error: {e}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Index(e) => write!(f, "index error: {e}"),
            EngineError::ObjectExists(n) => write!(f, "MDD object {n:?} already exists"),
            EngineError::UnknownObject(n) => write!(f, "unknown MDD object {n:?}"),
            EngineError::CellSizeMismatch { expected, got } => {
                write!(f, "cell size mismatch: object has {expected}, got {got}")
            }
            EngineError::OutsideDefinitionDomain { domain, definition } => {
                write!(f, "domain {domain} outside definition domain {definition}")
            }
            EngineError::OverlapsExistingTiles { domain } => {
                write!(f, "insert at {domain} overlaps existing tiles")
            }
            EngineError::EmptyObject(n) => write!(f, "MDD object {n:?} holds no cells"),
            EngineError::DataLengthMismatch { expected, got } => {
                write!(
                    f,
                    "data length mismatch: expected {expected} bytes, got {got}"
                )
            }
            EngineError::BadAccessRegion(s) => write!(f, "bad access region: {s}"),
            EngineError::Catalog(s) => write!(f, "catalog error: {s}"),
            EngineError::NoAccessRecorder => {
                write!(f, "no access recorder attached to this database")
            }
            EngineError::BadSpec(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Geometry(e) => Some(e),
            EngineError::Tiling(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            EngineError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeometryError> for EngineError {
    fn from(e: GeometryError) -> Self {
        EngineError::Geometry(e)
    }
}

impl From<TilingError> for EngineError {
    fn from(e: TilingError) -> Self {
        EngineError::Tiling(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> Self {
        EngineError::Index(e)
    }
}

/// Convenience result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
