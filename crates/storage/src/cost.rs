//! Deterministic disk cost model.
//!
//! The paper reports wall-clock seconds on a 1997-era Sun Ultra with a local
//! SCSI disk. Absolute numbers are unreproducible; what matters is that the
//! cost of a query is dominated by (a) a seek per BLOB fetched and (b) a
//! transfer per page read — the two quantities the tiling strategies
//! optimize. [`CostModel`] converts an [`IoSnapshot`] plus index/CPU
//! counters into model seconds so speedup tables reproduce exactly.

use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::stats::IoSnapshot;

/// Linear disk/CPU cost model. All values are seconds (per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one seek (charged once per BLOB read — a tile's pages are
    /// contiguous).
    pub seek_s: f64,
    /// Cost of transferring one page.
    pub page_transfer_s: f64,
    /// Cost of visiting one index node.
    pub index_node_s: f64,
    /// Cost of post-processing one cell that lands in the result
    /// (bulk run copy).
    pub cpu_cell_s: f64,
    /// Cost of handling one *wasted* cell — read as part of a border tile
    /// but clipped away. Clipping walks the tile region cell-wise /
    /// short-run-wise (~1 µs per cell in 1999-era per-cell composition code), which §6.1 identifies as the dominant CPU cost of
    /// regular tiling ("data has to be copied from the border tiles to
    /// calculate the end result").
    pub cpu_waste_cell_s: f64,
}

impl CostModel {
    /// Parameters modelled on the paper's late-90s setup (Sun Ultra I with
    /// a local SCSI disk behind the O₂ object store): BLOB pages are
    /// clustered, so the per-tile positioning cost is a short 0.5 ms hop,
    /// transfer runs at ~10 MB/s (0.75 ms per 8 KiB page), index nodes cost
    /// 5 µs, and post-processing (decode + copy on an UltraSPARC) ~100 ns
    /// per cell. Transfer dominates, as in the paper, where `t_o` tracks
    /// the amount of data read (§6.1 attributes the directional speedup to
    /// "the amount of data read … in the border tiles").
    #[must_use]
    pub fn classic_disk() -> Self {
        CostModel {
            seek_s: 0.5e-3,
            page_transfer_s: 0.75e-3,
            index_node_s: 5.0e-6,
            cpu_cell_s: 100.0e-9,
            cpu_waste_cell_s: 1.0e-6,
        }
    }

    /// A seek-dominated model (8 ms seek, fast transfer) for the ablation
    /// showing how scheme rankings shift when positioning cost dominates —
    /// e.g. unclustered BLOBs or very small tiles.
    #[must_use]
    pub fn seek_dominated() -> Self {
        CostModel {
            seek_s: 8.0e-3,
            page_transfer_s: 0.1e-3,
            index_node_s: 5.0e-6,
            cpu_cell_s: 100.0e-9,
            cpu_waste_cell_s: 1.0e-6,
        }
    }

    /// A model with free CPU, isolating the I/O components.
    #[must_use]
    pub fn io_only() -> Self {
        CostModel {
            cpu_cell_s: 0.0,
            cpu_waste_cell_s: 0.0,
            index_node_s: 0.0,
            ..Self::classic_disk()
        }
    }

    /// Tile-retrieval cost `t_o`: seeks plus page transfers.
    #[must_use]
    pub fn t_o(&self, io: &IoSnapshot) -> f64 {
        io.blobs_read as f64 * self.seek_s + io.pages_read as f64 * self.page_transfer_s
    }

    /// Tile-retrieval cost `t_o` when coalesced run reads are accounted:
    /// each coalesced run costs one positioning operation regardless of how
    /// many blobs it spans, while pages read one at a time keep their
    /// per-page seek. Transfers are unchanged — coalescing removes
    /// positioning cost, not data volume. With no coalesced runs this
    /// reduces to charging a seek per page read singly, an upper bound on
    /// [`CostModel::t_o`]'s per-blob charge, so compare like with like.
    #[must_use]
    pub fn t_o_coalesced(&self, io: &IoSnapshot) -> f64 {
        let positioned = io.pages_read - io.pages_read_run + io.runs_coalesced;
        positioned as f64 * self.seek_s + io.pages_read as f64 * self.page_transfer_s
    }

    /// Index-access cost `t_ix` for `nodes` visited index nodes.
    #[must_use]
    pub fn t_ix(&self, nodes: u64) -> f64 {
        nodes as f64 * self.index_node_s
    }

    /// Post-processing cost `t_cpu`: `useful` cells composed into the
    /// result (bulk copies and default fills) plus `wasted` cells fetched
    /// with border tiles but clipped away.
    #[must_use]
    pub fn t_cpu(&self, useful: u64, wasted: u64) -> f64 {
        useful as f64 * self.cpu_cell_s + wasted as f64 * self.cpu_waste_cell_s
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::classic_disk()
    }
}

impl ToJson for CostModel {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seek_s", self.seek_s.to_json()),
            ("page_transfer_s", self.page_transfer_s.to_json()),
            ("index_node_s", self.index_node_s.to_json()),
            ("cpu_cell_s", self.cpu_cell_s.to_json()),
            ("cpu_waste_cell_s", self.cpu_waste_cell_s.to_json()),
        ])
    }
}

impl FromJson for CostModel {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (
            mut seek_s,
            mut page_transfer_s,
            mut index_node_s,
            mut cpu_cell_s,
            mut cpu_waste_cell_s,
        ) = (None, None, None, None, None);
        r.object(|r, key| match key {
            "seek_s" => r.field(&mut seek_s),
            "page_transfer_s" => r.field(&mut page_transfer_s),
            "index_node_s" => r.field(&mut index_node_s),
            "cpu_cell_s" => r.field(&mut cpu_cell_s),
            "cpu_waste_cell_s" => r.field(&mut cpu_waste_cell_s),
            _ => r.skip(),
        })?;
        Ok(CostModel {
            seek_s: required(seek_s, "seek_s")?,
            page_transfer_s: required(page_transfer_s, "page_transfer_s")?,
            index_node_s: required(index_node_s, "index_node_s")?,
            cpu_cell_s: required(cpu_cell_s, "cpu_cell_s")?,
            cpu_waste_cell_s: required(cpu_waste_cell_s, "cpu_waste_cell_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_o_charges_seek_per_blob_and_transfer_per_page() {
        let m = CostModel::classic_disk();
        let io = IoSnapshot {
            blobs_read: 2,
            pages_read: 10,
            ..IoSnapshot::default()
        };
        let expected = 2.0 * 0.5e-3 + 10.0 * 0.75e-3;
        assert!((m.t_o(&io) - expected).abs() < 1e-12);
    }

    #[test]
    fn fewer_seeks_cost_less_for_same_pages() {
        // The core motivation for larger adapted tiles: same data volume,
        // fewer tiles -> cheaper.
        let m = CostModel::classic_disk();
        let many = IoSnapshot {
            blobs_read: 40,
            pages_read: 100,
            ..IoSnapshot::default()
        };
        let few = IoSnapshot {
            blobs_read: 4,
            pages_read: 100,
            ..IoSnapshot::default()
        };
        assert!(m.t_o(&few) < m.t_o(&many));
    }

    #[test]
    fn coalesced_runs_pay_one_seek_each() {
        let m = CostModel::seek_dominated();
        // 100 pages fetched as scattered singles vs. as 4 coalesced runs.
        let scattered = IoSnapshot {
            pages_read: 100,
            ..IoSnapshot::default()
        };
        let coalesced = IoSnapshot {
            pages_read: 100,
            runs_coalesced: 4,
            pages_read_run: 100,
            ..IoSnapshot::default()
        };
        let expected_scattered = 100.0 * 8.0e-3 + 100.0 * 0.1e-3;
        let expected_coalesced = 4.0 * 8.0e-3 + 100.0 * 0.1e-3;
        assert!((m.t_o_coalesced(&scattered) - expected_scattered).abs() < 1e-12);
        assert!((m.t_o_coalesced(&coalesced) - expected_coalesced).abs() < 1e-12);
        assert!(m.t_o_coalesced(&coalesced) < m.t_o_coalesced(&scattered) / 1.5);
    }

    #[test]
    fn io_only_zeroes_cpu_and_index() {
        let m = CostModel::io_only();
        assert_eq!(m.t_cpu(1_000_000, 1_000_000), 0.0);
        assert_eq!(m.t_ix(1_000), 0.0);
        assert!(
            m.t_o(&IoSnapshot {
                blobs_read: 1,
                pages_read: 1,
                ..IoSnapshot::default()
            }) > 0.0
        );
    }
}
