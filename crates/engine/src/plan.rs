//! One plan per statement: what to read, decided once.
//!
//! In the paper's §6 cost model a query costs the tiles and pages it
//! touches, so there is one plan to compute. [`Snapshot::plan`] computes it:
//! it validates the statement, searches the tile index and decides once per
//! candidate tile whether execution fetches it, prunes it on its synopsis or
//! condenses it from the synopsis; then it cuts the fetched tiles into the
//! reads that execute them. Range reads paste the payloads of those reads,
//! condensers fold them, and EXPLAIN renders the same [`Plan`]
//! ([`Plan::explain`](crate::Plan::explain)), so the report is the executed
//! plan: a tile reported `fetch-coalesced` is a page the executed reads
//! joined onto the previous one's positioned read.

use std::ops::Range;
use std::sync::Arc;

use tilestore_compress::CellContext;
use tilestore_geometry::Domain;
use tilestore_storage::{BlobId, BlobPlacement, BlobStore, IoSnapshot, PageStore};

use crate::aggregate::{decode_numeric, kind_accepts_synopsis, AggKind};
use crate::error::{EngineError, Result};
use crate::explain::TileDecision;
use crate::mdd::MddObject;
use crate::predicate::CellPredicate;
use crate::snapshot::Snapshot;
use crate::stats::QueryStats;

/// Upper bound on the bytes one batched tile read stages. Large enough that
/// a defragmented range query coalesces many tiles into each positioned
/// read, small enough to bound the scratch buffer: at 4 MiB the 64 MiB cold
/// scan ran 28 % slower (p50) and held 1 MiB more RSS than at 256 KiB.
const READAHEAD_BATCH_BYTES: usize = 256 << 10;

/// A statement's plan against one snapshot: every candidate tile the index
/// returned, in index order, with the decision execution takes for it, and
/// the batched reads that fetch the tiles it does not skip.
pub struct Plan {
    pub(crate) object: Arc<MddObject>,
    pub(crate) region: Domain,
    pub(crate) predicate: Option<CellPredicate>,
    pub(crate) condenser: Option<AggKind>,
    pub(crate) epoch: u64,
    pub(crate) index_nodes: u64,
    /// Candidate tile positions in index order, with their decisions.
    pub(crate) tiles: Vec<(u64, TileDecision)>,
    /// Indexes into `tiles` of the fetched candidates, in read order.
    reads: Vec<usize>,
    /// Consecutive ranges of `reads`, one `BlobStore::read_batch` each.
    batches: Vec<Range<usize>>,
}

/// Sorts `plan` by each blob's first page (elevator order) and cuts it
/// greedily into batches of at most [`READAHEAD_BATCH_BYTES`] (always at
/// least one tile), each fetched by one `BlobStore::read_batch`.
fn read_batches<T>(plan: &mut [(T, BlobPlacement)], page_size: usize) -> Vec<Range<usize>> {
    plan.sort_by_key(|(_, p)| p.first_page.0);
    let cap = (READAHEAD_BATCH_BYTES / page_size).max(1) as u64;
    let mut batches = Vec::new();
    let mut i = 0;
    while i < plan.len() {
        let mut j = i;
        let mut pages = 0u64;
        while j < plan.len() && (j == i || pages + plan[j].1.pages <= cap) {
            pages += plan[j].1.pages;
            j += 1;
        }
        batches.push(i..j);
        i = j;
    }
    batches
}

impl<S: PageStore> Snapshot<S> {
    /// Plans a statement over `region` of object `name` without executing
    /// it: a masked range read when `condenser` is `None`, otherwise that
    /// condenser. The plan holds the decision for every candidate tile and
    /// the reads that fetch the rest. Range reads get their reads sorted by
    /// page and cut into batches, so tiles on consecutive pages share one
    /// positioned read; condensers get one read per tile in index order,
    /// because the order a Sum or Avg adds its cells in is observable.
    /// Planning performs no blob I/O and does not feed the access log.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], a region outside the definition
    /// domain, a predicate over a non-numeric cell type, and storage errors
    /// of resolving the fetched blobs' placements.
    pub fn plan(
        &self,
        name: &str,
        region: &Domain,
        predicate: Option<&CellPredicate>,
        condenser: Option<AggKind>,
    ) -> Result<Plan> {
        let meta = &self.catalog.entry(name)?.meta;
        if predicate.is_some() {
            // A predicate compares numerically; reject Rgb-style cells here
            // rather than failing mid-scan.
            decode_numeric(&meta.mdd_type.cell, &meta.mdd_type.cell.default)?;
        }
        if !meta.mdd_type.definition.admits(region) {
            return Err(EngineError::OutsideDefinitionDomain {
                domain: region.to_string(),
                definition: meta.mdd_type.definition.to_string(),
            });
        }
        let search = meta.index.search(region);
        let mut tiles = Vec::with_capacity(search.hits.len());
        let mut reads = Vec::with_capacity(search.hits.len());
        for pos in search.hits {
            let tile = &meta.tiles[pos as usize];
            let skip = match (predicate, condenser) {
                (Some(p), _) => p.prune(meta, pos as usize).map(TileDecision::SynopsisPrune),
                (None, Some(kind))
                    if region.contains_domain(&tile.domain)
                        && tile
                            .synopsis
                            .as_ref()
                            .is_some_and(|syn| kind_accepts_synopsis(kind, syn)) =>
                {
                    Some(TileDecision::SynopsisCondense)
                }
                _ => None,
            };
            if skip.is_none() {
                reads.push(tiles.len());
            }
            tiles.push((pos, skip.unwrap_or(TileDecision::Fetched)));
        }
        let batches = if condenser.is_some() {
            (0..reads.len()).map(|i| i..i + 1).collect()
        } else {
            let mut placed = reads
                .iter()
                .map(|&i| {
                    let blob = meta.tiles[tiles[i].0 as usize].blob;
                    Ok((i, self.blobs.blob_placement(blob)?))
                })
                .collect::<Result<Vec<_>>>()?;
            let batches = read_batches(&mut placed, self.blobs.page_store().page_size());
            for batch in &batches {
                for k in batch.start + 1..batch.end {
                    // The pages directly follow the previous blob's, so the
                    // batch reads both with one positioned read.
                    let (prev, next) = (&placed[k - 1].1, &placed[k].1);
                    if prev.runs == 1 && prev.first_page.0 + prev.pages == next.first_page.0 {
                        tiles[placed[k].0].1 = TileDecision::FetchCoalesced;
                    }
                }
            }
            reads = placed.into_iter().map(|(i, _)| i).collect();
            batches
        };
        Ok(Plan {
            object: Arc::clone(meta),
            region: region.clone(),
            predicate: predicate.copied(),
            condenser,
            epoch: self.catalog.version,
            index_nodes: search.nodes_visited,
            tiles,
            reads,
            batches,
        })
    }
}

impl Plan {
    /// The counters the plan fixes before execution: index nodes visited,
    /// tiles to read and tiles answered without reading.
    pub(crate) fn stats(&self) -> QueryStats {
        QueryStats {
            index_nodes: self.index_nodes,
            tiles_read: self.reads.len() as u64,
            tiles_pruned: (self.tiles.len() - self.reads.len()) as u64,
            ..QueryStats::default()
        }
    }

    /// Executes the plan's reads: one `read_batch` per batch into a scratch
    /// buffer reused across batches, then each fetched tile's position and
    /// decoded payload to `visit`, in read order. Returns the counts of the
    /// reads.
    pub(crate) fn fetch<S: PageStore>(
        &self,
        blobs: &BlobStore<S>,
        mut visit: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<IoSnapshot> {
        let ctx = CellContext {
            cell_size: self.object.cell_size(),
            default: &self.object.mdd_type.cell.default,
        };
        let mut scratch = Vec::new();
        let mut ids: Vec<BlobId> = Vec::new();
        let mut io = IoSnapshot::default();
        for batch in &self.batches {
            let reads = &self.reads[batch.clone()];
            ids.clear();
            ids.extend(
                reads
                    .iter()
                    .map(|&i| self.object.tiles[self.tiles[i].0 as usize].blob),
            );
            let (ranges, batch_io) = blobs.read_batch(&ids, &mut scratch)?;
            io += &batch_io;
            for (&i, &(off, len)) in reads.iter().zip(&ranges) {
                let payload = tilestore_compress::decompress_view(&scratch[off..off + len], &ctx)
                    .map_err(|e| {
                    EngineError::Catalog(format!("tile decompression failed: {e}"))
                })?;
                visit(self.tiles[i].0, &payload)?;
            }
        }
        Ok(io)
    }
}
