//! Per-tile synopses: small statistics computed when a tile's payload is
//! in hand (insert, retile, update) and persisted with the tile metadata.
//!
//! A synopsis bounds what the tile's cells can be without decompressing
//! the blob: min/max/sum over the numeric interpretation, the non-default
//! cell count, a coarse null mask, and a value-bin membership mask. The
//! read path uses these to prune tiles under value predicates and to
//! short-circuit min/max/count/some/all condensers.
//!
//! Cell values are mapped into [`BINS`] coarse value bins by the monotone
//! `value_bin` function, in the spirit of Krčál, Ho & Holub's bitmap
//! indexing for range and membership queries on arrays. A predicate's
//! candidate bins (`bins_ge`, `bins_le`, `bins_eq`) disjoint from a tile's
//! mask prove the tile holds no matching cell.

use tilestore_compress::{scan_cells, CellContext, CellScan};
use tilestore_testkit::{FromJson, Json, JsonError, ToJson};

use crate::aggregate::decode_numeric;
use crate::celltype::CellType;

/// Number of value bins (one bit each in a tile mask).
pub(crate) const BINS: u32 = 64;

/// Maps a cell value to its bin, or `None` for NaN (NaN fails every
/// comparison predicate, so it never needs to make a tile a candidate).
///
/// The binning is monotone (`v <= w` implies `value_bin(v) <= value_bin(w)`)
/// and value-independent, so masks can be built tile-by-tile in one pass
/// with no cross-tile coordination:
///
/// * bins 0..=25 — negative values by descending magnitude (bin 0 holds
///   `v <= -2^25`, bin 25 holds `-2^-6 < v < 0`... approximately: the
///   exponent of `-v` is clamped to `[-6, 25]`);
/// * bin 31 — exactly zero;
/// * bins 32..=63 — positive values by ascending magnitude (exponent of
///   `v` clamped to `[-6, 25]`, so bin 63 holds `v >= 2^25`).
#[must_use]
pub(crate) fn value_bin(v: f64) -> Option<u32> {
    if v.is_nan() {
        return None;
    }
    Some(if v == 0.0 {
        31
    } else if v > 0.0 {
        let e = v.log2().floor().clamp(-6.0, 25.0) as i64;
        (32 + (e + 6)) as u32
    } else {
        let e = (-v).log2().floor().clamp(-6.0, 25.0) as i64;
        (25 - e) as u32
    })
}

/// Mask of every bin that could hold a value `>= v` (or `> v` — the bin
/// granularity cannot distinguish the two, so both use the closed form).
#[must_use]
pub(crate) fn bins_ge(v: f64) -> u64 {
    match value_bin(v) {
        // All bits from bin(v) upward.
        Some(b) => !0u64 << b,
        None => 0,
    }
}

/// Mask of every bin that could hold a value `<= v` (or `< v`).
#[must_use]
pub(crate) fn bins_le(v: f64) -> u64 {
    match value_bin(v) {
        // All bits from 0 through bin(v).
        Some(b) if b == BINS - 1 => !0u64,
        Some(b) => (1u64 << (b + 1)) - 1,
        None => 0,
    }
}

/// Mask of the single bin holding `v`.
#[must_use]
pub(crate) fn bins_eq(v: f64) -> u64 {
    match value_bin(v) {
        Some(b) => 1u64 << b,
        None => 0,
    }
}

/// Statistics of one tile's payload.
///
/// Extrema and the sum are stored as IEEE-754 bit patterns so they survive
/// the catalog's JSON round-trip exactly (decimal float formatting is
/// lossy). For non-numeric cell types only the byte-level half is
/// meaningful: [`TileSynopsis::min`]/[`max`](TileSynopsis::max)/
/// [`sum`](TileSynopsis::sum) return `None` and the bin mask is all-ones
/// ("unknown" — never prunes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSynopsis {
    cells: u64,
    non_default: u64,
    null_mask: u64,
    bins: u64,
    numeric: bool,
    has_nan: bool,
    min_bits: u64,
    max_bits: u64,
    sum_bits: u64,
}

impl TileSynopsis {
    /// Builds a synopsis from a payload plus the byte-level scan already
    /// gathered during compression.
    #[must_use]
    pub fn from_scan(cell_type: &CellType, payload: &[u8], scan: CellScan) -> Self {
        let mut syn = TileSynopsis {
            cells: scan.cells,
            non_default: scan.non_default,
            null_mask: scan.null_mask,
            bins: !0,
            numeric: false,
            has_nan: false,
            min_bits: f64::INFINITY.to_bits(),
            max_bits: f64::NEG_INFINITY.to_bits(),
            sum_bits: 0f64.to_bits(),
        };
        // A cell type decode_numeric rejects stays byte-level only; probe
        // with the default value (decoding depends on the name, not bytes).
        if decode_numeric(cell_type, &cell_type.default).is_err() {
            return syn;
        }
        syn.numeric = true;
        syn.bins = 0;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
        for cell in payload.chunks_exact(cell_type.size.max(1)) {
            let v = decode_numeric(cell_type, cell).expect("numeric cell type");
            sum += v;
            min = min.min(v);
            max = max.max(v);
            match value_bin(v) {
                Some(bin) => syn.bins |= 1 << bin,
                None => syn.has_nan = true,
            }
        }
        syn.min_bits = min.to_bits();
        syn.max_bits = max.to_bits();
        syn.sum_bits = sum.to_bits();
        syn
    }

    /// Builds a synopsis by scanning `payload` from scratch.
    #[must_use]
    pub fn scan(cell_type: &CellType, payload: &[u8]) -> Self {
        let ctx = CellContext {
            cell_size: cell_type.size,
            default: &cell_type.default,
        };
        Self::from_scan(cell_type, payload, scan_cells(payload, &ctx))
    }

    /// Total number of cells in the tile.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Number of cells different from the type's default value.
    #[must_use]
    pub fn non_default(&self) -> u64 {
        self.non_default
    }

    /// Coarse mask of where default ("null") cells sit: the tile's cells
    /// in storage order are split into 64 chunks; bit `k` is set iff chunk
    /// `k` holds at least one default cell. Zero iff fully non-default.
    #[must_use]
    pub fn null_mask(&self) -> u64 {
        self.null_mask
    }

    /// Value-bin membership mask: bit `b` is set iff some cell falls in
    /// value bin `b` (see the module docs).
    /// All-ones for non-numeric cell types: "could be anything".
    #[must_use]
    pub fn bins(&self) -> u64 {
        self.bins
    }

    /// Whether the cell type decodes to `f64` (extrema/sum are meaningful).
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        self.numeric
    }

    /// Whether any cell decoded to NaN (NaN is excluded from the extrema
    /// and the bin mask; predicate pruning must stay conservative for it).
    #[must_use]
    pub fn has_nan(&self) -> bool {
        self.has_nan
    }

    /// Minimum cell value (`None` for non-numeric types; `+inf` bits for
    /// an empty or all-NaN payload surface as `Some(inf)`).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.numeric.then(|| f64::from_bits(self.min_bits))
    }

    /// Maximum cell value (`None` for non-numeric types).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.numeric.then(|| f64::from_bits(self.max_bits))
    }

    /// Sum of all cell values (`None` for non-numeric types).
    #[must_use]
    pub fn sum(&self) -> Option<f64> {
        self.numeric.then(|| f64::from_bits(self.sum_bits))
    }
}

impl ToJson for TileSynopsis {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cells", self.cells.to_json()),
            ("non_default", self.non_default.to_json()),
            ("null_mask", self.null_mask.to_json()),
            ("bins", self.bins.to_json()),
            ("numeric", self.numeric.to_json()),
            ("nan", self.has_nan.to_json()),
            ("min_bits", self.min_bits.to_json()),
            ("max_bits", self.max_bits.to_json()),
            ("sum_bits", self.sum_bits.to_json()),
        ])
    }
}

impl FromJson for TileSynopsis {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        Ok(TileSynopsis {
            cells: u64::from_json(v.field("cells")?)?,
            non_default: u64::from_json(v.field("non_default")?)?,
            null_mask: u64::from_json(v.field("null_mask")?)?,
            bins: u64::from_json(v.field("bins")?)?,
            numeric: bool::from_json(v.field("numeric")?)?,
            has_nan: bool::from_json(v.field("nan")?)?,
            min_bits: u64::from_json(v.field("min_bits")?)?,
            max_bits: u64::from_json(v.field("max_bits")?)?,
            sum_bits: u64::from_json(v.field("sum_bits")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celltype::Rgb;
    use tilestore_testkit::json;

    fn payload<T: crate::celltype::CellValue>(values: &[T]) -> Vec<u8> {
        let mut out = vec![0u8; values.len() * T::SIZE];
        for (i, v) in values.iter().enumerate() {
            v.write_bytes(&mut out[i * T::SIZE..(i + 1) * T::SIZE]);
        }
        out
    }

    #[test]
    fn binning_is_monotone() {
        let samples = [
            f64::NEG_INFINITY,
            -1e12,
            -40_000_000.0,
            -33_554_432.0,
            -1000.0,
            -1.5,
            -1.0,
            -0.01,
            -1e-9,
            0.0,
            1e-9,
            0.01,
            0.015_625,
            1.0,
            1.5,
            1000.0,
            33_554_432.0,
            40_000_000.0,
            1e12,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            let (a, b) = (value_bin(w[0]).unwrap(), value_bin(w[1]).unwrap());
            assert!(a <= b, "bin({}) = {a} > bin({}) = {b}", w[0], w[1]);
        }
        for v in samples {
            assert!(value_bin(v).unwrap() < BINS);
        }
        assert_eq!(value_bin(0.0), Some(31));
        assert_eq!(value_bin(f64::NAN), None);
    }

    #[test]
    fn candidate_masks_cover_their_values() {
        for &v in &[-100.0, -0.5, 0.0, 0.5, 7.0, 1e9] {
            let bin = value_bin(v).unwrap();
            assert_ne!(bins_ge(v) & (1 << bin), 0, "ge misses bin of {v}");
            assert_ne!(bins_le(v) & (1 << bin), 0, "le misses bin of {v}");
            assert_eq!(bins_eq(v), 1 << bin);
            // ge and le together cover everything and overlap only at v's bin.
            assert_eq!(bins_ge(v) | bins_le(v), !0);
            assert_eq!(bins_ge(v) & bins_le(v), 1 << bin);
        }
        // NaN matches nothing.
        assert_eq!(bins_ge(f64::NAN), 0);
        assert_eq!(bins_le(f64::NAN), 0);
        assert_eq!(bins_eq(f64::NAN), 0);
    }

    #[test]
    fn numeric_synopsis_captures_extrema_and_counts() {
        let cell = CellType::of::<i32>();
        let syn = TileSynopsis::scan(&cell, &payload(&[3i32, -7, 0, 12, 0]));
        assert_eq!(syn.cells(), 5);
        assert_eq!(syn.non_default(), 3); // two zeros are the default
        assert_ne!(syn.null_mask(), 0);
        assert!(syn.is_numeric());
        assert!(!syn.has_nan());
        assert_eq!(syn.min(), Some(-7.0));
        assert_eq!(syn.max(), Some(12.0));
        assert_eq!(syn.sum(), Some(8.0));
        // Each distinct value's bin is present.
        for v in [3.0, -7.0, 0.0, 12.0] {
            let bin = value_bin(v).unwrap();
            assert_ne!(syn.bins() & (1 << bin), 0, "missing bin of {v}");
        }
    }

    #[test]
    fn non_numeric_synopsis_is_byte_level_only() {
        let cell = CellType::of::<Rgb>();
        let syn = TileSynopsis::scan(&cell, &payload(&[Rgb::new(1, 2, 3), Rgb::default()]));
        assert_eq!(syn.cells(), 2);
        assert_eq!(syn.non_default(), 1);
        assert!(!syn.is_numeric());
        assert_eq!(syn.min(), None);
        assert_eq!(syn.max(), None);
        assert_eq!(syn.sum(), None);
        assert_eq!(syn.bins(), !0, "non-numeric bins are all-ones (unknown)");
    }

    #[test]
    fn nan_cells_are_flagged_and_excluded_from_extrema() {
        let cell = CellType::of::<f64>();
        let syn = TileSynopsis::scan(&cell, &payload(&[1.5f64, f64::NAN, -2.5]));
        assert!(syn.has_nan());
        assert_eq!(syn.min(), Some(-2.5));
        assert_eq!(syn.max(), Some(1.5));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let cell = CellType::of::<f64>();
        // 0.1 + 0.2 style sums don't survive decimal formatting; the bits
        // representation must round-trip exactly anyway.
        let syn = TileSynopsis::scan(&cell, &payload(&[0.1f64, 0.2, -1.0 / 3.0]));
        let text = json::to_string(&syn);
        let back: TileSynopsis = json::from_str(&text).unwrap();
        assert_eq!(back, syn);
        assert_eq!(back.sum().unwrap().to_bits(), syn.sum().unwrap().to_bits());
    }

    #[test]
    fn empty_payload_synopsis() {
        let cell = CellType::of::<u16>();
        let syn = TileSynopsis::scan(&cell, &[]);
        assert_eq!(syn.cells(), 0);
        assert_eq!(syn.non_default(), 0);
        assert_eq!(syn.null_mask(), 0);
        assert_eq!(syn.bins(), 0);
        assert_eq!(syn.min(), Some(f64::INFINITY));
        assert_eq!(syn.max(), Some(f64::NEG_INFINITY));
    }
}
