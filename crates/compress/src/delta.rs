//! Shuffled byte-lane delta transform for smooth raster data.
//!
//! Two steps, both exactly invertible and size-preserving:
//!
//! 1. **Shuffle**: reorder the payload lane-major — all cells' byte 0, then
//!    all cells' byte 1, … (the "shuffle" of Blosc-style compressors), so
//!    that bytes with similar statistics become contiguous;
//! 2. **Delta**: difference each lane against its previous value
//!    (wrapping), turning smooth gradients into long near-zero runs that
//!    PackBits collapses.
//!
//! The kernels are blocked: [`forward`] gathers 8 cells per iteration and
//! writes each lane's deltas as one u64 store, and [`inverse`] reconstructs
//! 8 lanes per iteration with interleaved prefix sums (`prev: [u8; 8]`), so
//! the serial lane dependency no longer limits the reconstruction to one
//! add per cycle. Output is byte-identical to a byte-at-a-time reference,
//! pinned by the unit tests.

use crate::error::{CompressError, Result};

/// Reference byte-at-a-time implementation, test-only: the blocked kernels
/// must match it byte for byte.
#[cfg(test)]
mod scalar {
    use super::{check, Result};

    /// Applies shuffle + per-lane delta, one byte at a time.
    ///
    /// # Errors
    /// [`crate::CompressError::ZeroCellSize`] /
    /// [`crate::CompressError::BadPayload`].
    pub fn forward(payload: &[u8], cell_size: usize) -> Result<Vec<u8>> {
        check(payload, cell_size)?;
        let cells = payload.len() / cell_size;
        let mut out = Vec::with_capacity(payload.len());
        for lane in 0..cell_size {
            let mut prev = 0u8;
            for cell in 0..cells {
                let b = payload[cell * cell_size + lane];
                out.push(b.wrapping_sub(prev));
                prev = b;
            }
        }
        Ok(out)
    }

    /// Inverts [`forward`], one byte at a time.
    ///
    /// # Errors
    /// [`crate::CompressError::ZeroCellSize`] /
    /// [`crate::CompressError::BadPayload`].
    pub fn inverse(deltas: &[u8], cell_size: usize) -> Result<Vec<u8>> {
        check(deltas, cell_size)?;
        let cells = deltas.len() / cell_size;
        let mut out = vec![0u8; deltas.len()];
        for lane in 0..cell_size {
            let mut prev = 0u8;
            for cell in 0..cells {
                let v = deltas[lane * cells + cell].wrapping_add(prev);
                out[cell * cell_size + lane] = v;
                prev = v;
            }
        }
        Ok(out)
    }
}

/// Applies shuffle + per-lane delta, returning a buffer of the same size.
///
/// Blocked kernel: for each lane, 8 cells are gathered per iteration, their
/// deltas computed in registers, and stored into the contiguous lane row as
/// a single u64 write.
///
/// # Errors
/// [`CompressError::ZeroCellSize`] / [`CompressError::BadPayload`].
pub fn forward(payload: &[u8], cell_size: usize) -> Result<Vec<u8>> {
    check(payload, cell_size)?;
    let cells = payload.len() / cell_size;
    let mut out = vec![0u8; payload.len()];
    for lane in 0..cell_size {
        let row = &mut out[lane * cells..(lane + 1) * cells];
        let mut prev = 0u8;
        let mut cell = 0usize;
        while cell + 8 <= cells {
            let base = cell * cell_size + lane;
            let mut b = [0u8; 8];
            for (k, byte) in b.iter_mut().enumerate() {
                *byte = payload[base + k * cell_size];
            }
            let d = [
                b[0].wrapping_sub(prev),
                b[1].wrapping_sub(b[0]),
                b[2].wrapping_sub(b[1]),
                b[3].wrapping_sub(b[2]),
                b[4].wrapping_sub(b[3]),
                b[5].wrapping_sub(b[4]),
                b[6].wrapping_sub(b[5]),
                b[7].wrapping_sub(b[6]),
            ];
            row[cell..cell + 8].copy_from_slice(&d);
            prev = b[7];
            cell += 8;
        }
        while cell < cells {
            let b = payload[cell * cell_size + lane];
            row[cell] = b.wrapping_sub(prev);
            prev = b;
            cell += 1;
        }
    }
    Ok(out)
}

/// Inverts [`forward`].
///
/// Blocked kernel: lanes are processed 8 at a time with interleaved prefix
/// sums — `prev: [u8; 8]` carries 8 independent add chains, and each cell's
/// 8 reconstructed bytes land as one contiguous u64 store. Lanes left over
/// when `cell_size % 8 != 0` (and narrow cells) fall back to a per-lane
/// 8-cells-per-iteration prefix sum.
///
/// # Errors
/// [`CompressError::ZeroCellSize`] / [`CompressError::BadPayload`].
pub fn inverse(deltas: &[u8], cell_size: usize) -> Result<Vec<u8>> {
    check(deltas, cell_size)?;
    let cells = deltas.len() / cell_size;
    let mut out = vec![0u8; deltas.len()];
    let mut lane = 0usize;
    // 8-lane-wide kernel: 8 interleaved prefix sums, contiguous 8-byte
    // stores into each cell.
    while lane + 8 <= cell_size {
        let mut prev = [0u8; 8];
        for cell in 0..cells {
            let mut v = [0u8; 8];
            for (k, val) in v.iter_mut().enumerate() {
                let p = prev[k].wrapping_add(deltas[(lane + k) * cells + cell]);
                *val = p;
                prev[k] = p;
            }
            out[cell * cell_size + lane..cell * cell_size + lane + 8].copy_from_slice(&v);
        }
        lane += 8;
    }
    // Remaining lanes: per-lane, 8 cells per iteration from the contiguous
    // delta row, prefix-summed in registers, scattered to cell positions.
    while lane < cell_size {
        let row = &deltas[lane * cells..(lane + 1) * cells];
        let mut prev = 0u8;
        let mut cell = 0usize;
        while cell + 8 <= cells {
            let mut d = [0u8; 8];
            d.copy_from_slice(&row[cell..cell + 8]);
            let mut v = [0u8; 8];
            let mut acc = prev;
            for k in 0..8 {
                acc = acc.wrapping_add(d[k]);
                v[k] = acc;
            }
            let base = cell * cell_size + lane;
            for (k, &val) in v.iter().enumerate() {
                out[base + k * cell_size] = val;
            }
            prev = acc;
            cell += 8;
        }
        while cell < cells {
            prev = prev.wrapping_add(row[cell]);
            out[cell * cell_size + lane] = prev;
            cell += 1;
        }
        lane += 1;
    }
    Ok(out)
}

pub(crate) fn check(payload: &[u8], cell_size: usize) -> Result<()> {
    if cell_size == 0 {
        return Err(CompressError::ZeroCellSize);
    }
    if !payload.len().is_multiple_of(cell_size) {
        return Err(CompressError::BadPayload {
            len: payload.len(),
            cell_size,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_cell_sizes() {
        for cell_size in [1usize, 2, 3, 4, 8] {
            let data: Vec<u8> = (0..cell_size * 100).map(|i| (i * 7 % 251) as u8).collect();
            let fwd = forward(&data, cell_size).unwrap();
            assert_eq!(fwd.len(), data.len());
            assert_eq!(inverse(&fwd, cell_size).unwrap(), data);
        }
    }

    #[test]
    fn blocked_kernels_match_scalar() {
        // Cell sizes straddling the 8-lane kernel (below, at, above, and
        // non-multiples) and cell counts straddling the 8-cell blocks.
        for cell_size in [1usize, 2, 3, 4, 7, 8, 9, 12, 16, 24] {
            for cells in [0usize, 1, 5, 7, 8, 9, 40, 129] {
                let data: Vec<u8> = (0..cell_size * cells)
                    .map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8)
                    .collect();
                let fast = forward(&data, cell_size).unwrap();
                let slow = scalar::forward(&data, cell_size).unwrap();
                assert_eq!(fast, slow, "forward cs={cell_size} cells={cells}");
                assert_eq!(
                    inverse(&fast, cell_size).unwrap(),
                    scalar::inverse(&slow, cell_size).unwrap(),
                    "inverse cs={cell_size} cells={cells}"
                );
                assert_eq!(inverse(&fast, cell_size).unwrap(), data);
            }
        }
    }

    /// The blocked kernels match the reference byte for byte in both
    /// directions on structured payloads, across cell sizes straddling the
    /// 8-lane kernel.
    #[test]
    fn blocked_delta_matches_scalar() {
        use crate::test_payloads::structured;
        use tilestore_testkit::prop::check;
        use tilestore_testkit::prop_assert_eq;
        check(
            "blocked_delta_matches_scalar",
            256,
            |s| {
                let cell_size = s.usize_in(1, 17);
                (cell_size, structured(s, cell_size))
            },
            |(cell_size, data)| {
                let data = &data[..data.len() / cell_size * cell_size];
                let fast = forward(data, *cell_size).unwrap();
                let slow = scalar::forward(data, *cell_size).unwrap();
                prop_assert_eq!(&fast, &slow, "forward diverges");
                prop_assert_eq!(inverse(&fast, *cell_size).unwrap(), data);
                prop_assert_eq!(scalar::inverse(&fast, *cell_size).unwrap(), data);
                Ok(())
            },
        );
    }

    #[test]
    fn smooth_data_becomes_runs() {
        // A linear ramp of u16 cells: after shuffle+delta the low lane is
        // all 1s and the high lane almost all 0s.
        let cells: Vec<u8> = (0..1000u16).flat_map(|v| v.to_le_bytes()).collect();
        let fwd = forward(&cells, 2).unwrap();
        let low_lane = &fwd[..1000];
        let high_lane = &fwd[1000..];
        assert!(low_lane.iter().skip(1).all(|&b| b == 1));
        let zeros = high_lane.iter().filter(|&&b| b == 0).count();
        assert!(zeros > 990, "high lane mostly zero: {zeros}");
    }

    #[test]
    fn validation() {
        assert!(forward(&[1, 2, 3], 2).is_err());
        assert!(forward(&[1, 2], 0).is_err());
        assert!(inverse(&[1, 2, 3], 2).is_err());
        assert_eq!(forward(&[], 4).unwrap(), Vec::<u8>::new());
    }
}
