//! Unified construction of [`Database`] instances.
//!
//! Before the builder existed, optional collaborators (access recorder,
//! executor pool, compression default) were bolted on after construction
//! via `attach_*` setters, and every entry point (`in_memory`,
//! `with_store`, `open_dir`) had to be wired by hand at each call site.
//! [`DatabaseBuilder`] gathers the options once and applies them in every
//! terminal:
//!
//! ```
//! use std::sync::Arc;
//! use tilestore_engine::DatabaseBuilder;
//! use tilestore_exec::ThreadPool;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = DatabaseBuilder::new()
//!     .executor(Arc::new(ThreadPool::new(2)))
//!     .in_memory()?;
//! assert!(db.executor().is_some());
//! # Ok(())
//! # }
//! ```

use std::path::Path;
use std::sync::Arc;

use tilestore_compress::CompressionPolicy;
use tilestore_exec::ThreadPool;
use tilestore_obs::AccessRecorder;
use tilestore_storage::{MemPageStore, PageStore};

use crate::database::Database;
use crate::error::Result;
use crate::persist::CachedFileStore;

/// Configures the optional collaborators of a [`Database`] and then builds
/// it over any backing store. Obtained from [`Database::builder`].
#[derive(Default)]
pub struct DatabaseBuilder {
    recorder: Option<AccessRecorder>,
    executor: Option<Arc<ThreadPool>>,
    compression: Option<CompressionPolicy>,
}

impl DatabaseBuilder {
    /// An empty builder: no recorder, no executor, `CompressionPolicy::None`
    /// for new objects.
    #[must_use]
    pub fn new() -> Self {
        DatabaseBuilder::default()
    }

    /// Attaches a persistent access recorder (see [`Database::set_recorder`]).
    /// For `open_dir`/`create_dir` this *replaces* the directory's default
    /// recorder.
    #[must_use]
    pub fn recorder(mut self, recorder: AccessRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a thread pool that query bands and insert/retile tile tasks
    /// scatter onto; without one the same task bodies run inline (see
    /// [`Database::set_executor`]).
    #[must_use]
    pub fn executor(mut self, pool: Arc<ThreadPool>) -> Self {
        self.executor = Some(pool);
        self
    }

    /// Sets the compression policy newly created objects start with
    /// (individual objects can still override it via
    /// [`Database::set_compression`]).
    #[must_use]
    pub fn compression(mut self, policy: CompressionPolicy) -> Self {
        self.compression = Some(policy);
        self
    }

    fn apply<S: PageStore>(self, mut db: Database<S>) -> Database<S> {
        if let Some(policy) = self.compression {
            db.set_default_compression(policy);
        }
        if let Some(recorder) = self.recorder {
            db.set_recorder(recorder);
        }
        if let Some(executor) = self.executor {
            db.set_executor(executor);
        }
        db
    }

    /// Builds an in-memory database.
    ///
    /// # Errors
    /// See [`Database::in_memory`].
    pub fn in_memory(self) -> Result<Database<MemPageStore>> {
        Ok(self.apply(Database::in_memory()?))
    }

    /// Builds a database over an arbitrary page store.
    #[must_use]
    pub fn with_store<S: PageStore>(self, store: S) -> Database<S> {
        self.apply(Database::with_store(store))
    }

    /// Creates a new file-backed database directory and builds over it,
    /// served through a sharded [`CachedFileStore`] buffer pool.
    ///
    /// # Errors
    /// See [`Database::create_dir`].
    pub fn create_dir<P: AsRef<Path>>(self, dir: P) -> Result<Database<CachedFileStore>> {
        Ok(self.apply(Database::create_dir(dir)?))
    }

    /// Reopens a saved database directory and builds over it, served
    /// through a sharded [`CachedFileStore`] buffer pool.
    ///
    /// # Errors
    /// See [`Database::open_dir`].
    pub fn open_dir<P: AsRef<Path>>(self, dir: P) -> Result<Database<CachedFileStore>> {
        Ok(self.apply(Database::open_dir(dir)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_compress::Codec;
    use tilestore_geometry::Domain;
    use tilestore_tiling::Scheme;

    use crate::array::Array;
    use crate::celltype::CellType;
    use crate::mdd::MddType;

    #[test]
    fn builder_applies_every_option() {
        let db = DatabaseBuilder::new()
            .executor(Arc::new(ThreadPool::new(2)))
            .compression(CompressionPolicy::Fixed(Codec::PackBits))
            .in_memory()
            .unwrap();
        assert!(db.executor().is_some());
        db.create_object(
            "flat",
            MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
            Scheme::default_for(1),
        )
        .unwrap();
        assert_eq!(
            db.object("flat").unwrap().compression,
            CompressionPolicy::Fixed(Codec::PackBits),
            "default compression flows into created objects"
        );
        // And it actually compresses: a constant array shrinks on disk.
        let dom: Domain = "[0:8191]".parse().unwrap();
        db.insert("flat", &Array::filled(dom.clone(), &[7]).unwrap())
            .unwrap();
        assert!(db.object_physical_bytes("flat").unwrap() < dom.cells());
    }

    #[test]
    fn builder_defaults_match_plain_construction() {
        let db = DatabaseBuilder::new().in_memory().unwrap();
        assert!(db.executor().is_none());
        assert!(db.recorder().is_none());
        db.create_object(
            "o",
            MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
            Scheme::default_for(1),
        )
        .unwrap();
        assert_eq!(db.object("o").unwrap().compression, CompressionPolicy::None);
    }

    #[test]
    fn builder_opens_directories_with_options() {
        let dir = tilestore_testkit::tempdir().unwrap();
        {
            let db = DatabaseBuilder::new().create_dir(dir.path()).unwrap();
            assert!(db.recorder().is_some(), "create_dir wires a recorder");
            db.create_object(
                "o",
                MddType::new(CellType::of::<u8>(), "[0:*]".parse().unwrap()),
                Scheme::default_for(1),
            )
            .unwrap();
            db.save(dir.path()).unwrap();
        }
        let db = DatabaseBuilder::new()
            .executor(Arc::new(ThreadPool::new(2)))
            .open_dir(dir.path())
            .unwrap();
        assert!(db.executor().is_some());
        assert_eq!(db.object_names(), vec!["o".to_string()]);
    }
}
