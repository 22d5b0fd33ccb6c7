//! MDD object metadata: types, tiles and current domains (§3–§5).

use tilestore_compress::CompressionPolicy;
use tilestore_geometry::{DefDomain, Domain};
use tilestore_index::RPlusTree;
use tilestore_storage::BlobId;
use tilestore_testkit::{FromJson, Json, JsonError, ToJson};
use tilestore_tiling::Scheme;

use crate::celltype::CellType;
use crate::synopsis::TileSynopsis;

/// The type of an MDD object: base (cell) type plus definition domain (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct MddType {
    /// The base type of the cells.
    pub cell: CellType,
    /// The definition domain; bounds may be unlimited (`*`).
    pub definition: DefDomain,
}

impl MddType {
    /// Creates an MDD type.
    #[must_use]
    pub fn new(cell: CellType, definition: DefDomain) -> Self {
        MddType { cell, definition }
    }

    /// Dimensionality of instances of this type.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.definition.dim()
    }
}

impl ToJson for MddType {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", self.cell.to_json()),
            ("definition", self.definition.to_json()),
        ])
    }
}

impl FromJson for MddType {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(MddType {
            cell: CellType::from_json(v.field("cell")?)?,
            definition: DefDomain::from_json(v.field("definition")?)?,
        })
    }
}

/// One stored tile: its spatial domain and the BLOB holding its cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMeta {
    /// The tile's spatial domain.
    pub domain: Domain,
    /// The BLOB storing the tile's cells (row-major within the domain).
    pub blob: BlobId,
    /// Value statistics of the payload. `None` only for tiles written by
    /// databases predating synopses; those are rebuilt lazily on open.
    pub synopsis: Option<TileSynopsis>,
}

impl ToJson for TileMeta {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("domain", self.domain.to_json()),
            ("blob", self.blob.to_json()),
        ];
        // Written only when present, so old readers are untouched by it
        // and a missing field round-trips as missing.
        if let Some(syn) = &self.synopsis {
            fields.push(("synopsis", syn.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for TileMeta {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TileMeta {
            domain: Domain::from_json(v.field("domain")?)?,
            blob: BlobId::from_json(v.field("blob")?)?,
            synopsis: match v.get("synopsis") {
                Some(s) => Some(TileSynopsis::from_json(s)?),
                None => None,
            },
        })
    }
}

/// A stored MDD object: type, tiling scheme, tiles and index.
///
/// The *current domain* is the minimal interval containing all inserted
/// cells; it grows by closure as tiles are inserted (§4) and is `None` for
/// an object that holds no cells yet.
#[derive(Debug, Clone, PartialEq)]
pub struct MddObject {
    /// Object name (unique within a database).
    pub name: String,
    /// The MDD type.
    pub mdd_type: MddType,
    /// The tiling scheme applied to inserted data.
    pub scheme: Scheme,
    /// Per-tile compression policy (§8: selective compression of blocks).
    /// Applies to tiles written after it is set; streams are
    /// self-describing, so mixed-codec objects read back correctly.
    /// Defaults to no compression when absent from a stored catalog.
    pub compression: CompressionPolicy,
    /// All stored tiles; index payloads are positions in this vector.
    pub tiles: Vec<TileMeta>,
    /// The R+-tree over tile domains.
    pub index: RPlusTree,
    /// Current spatial domain (`None` while empty).
    pub current_domain: Option<Domain>,
}

impl ToJson for MddObject {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("mdd_type", self.mdd_type.to_json()),
            ("scheme", self.scheme.to_json()),
            ("compression", self.compression.to_json()),
            ("tiles", self.tiles.to_json()),
            ("index", self.index.to_json()),
            ("current_domain", self.current_domain.to_json()),
        ])
    }
}

impl FromJson for MddObject {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // Catalogs written before compression existed omit the field.
        let compression = match v.get("compression") {
            Some(c) => CompressionPolicy::from_json(c)?,
            None => CompressionPolicy::default(),
        };
        Ok(MddObject {
            name: String::from_json(v.field("name")?)?,
            mdd_type: MddType::from_json(v.field("mdd_type")?)?,
            scheme: Scheme::from_json(v.field("scheme")?)?,
            compression,
            tiles: Vec::from_json(v.field("tiles")?)?,
            index: RPlusTree::from_json(v.field("index")?)?,
            current_domain: Option::from_json(v.field("current_domain")?)?,
        })
    }
}

impl MddObject {
    /// Cell size in bytes.
    #[must_use]
    pub fn cell_size(&self) -> usize {
        self.mdd_type.cell.size
    }

    /// Total cells covered by tiles (partial coverage means this can be
    /// less than the current domain's cell count).
    #[must_use]
    pub fn covered_cells(&self) -> u64 {
        self.tiles.iter().map(|t| t.domain.cells()).sum()
    }

    /// Total payload bytes across tiles.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.covered_cells() * self.cell_size() as u64
    }

    /// Number of tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mdd_type_dim_comes_from_definition() {
        let t = MddType::new(CellType::of::<u32>(), "[0:*,0:99]".parse().unwrap());
        assert_eq!(t.dim(), 2);
        assert_eq!(t.cell.size, 4);
    }
}
