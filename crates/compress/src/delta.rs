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
//! writes each lane's deltas as one u64 store, and [`inverse`] rebuilds
//! whole cells — up to 8 lanes as independent add chains, one contiguous
//! store per cell — and writes an 8-cell block whose deltas are all zero as
//! copies of the previous cell. Output is byte-identical to a
//! byte-at-a-time reference, pinned by the unit tests.

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
/// Lanes are rebuilt in groups of up to 8 by `lane_group`: narrow cells
/// (`cell_size < 8`, every u8/u16/u32/f32 object) are one group, wider
/// cells are groups of 8 lanes followed by the `cell_size % 8` tail.
///
/// # Errors
/// [`CompressError::ZeroCellSize`] / [`CompressError::BadPayload`].
pub fn inverse(deltas: &[u8], cell_size: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    inverse_into(deltas, cell_size, &mut out)?;
    Ok(out)
}

/// Like [`inverse`], but into `out`, so a caller decoding many tiles
/// reuses one allocation. The kernels store every byte of `out`, so only
/// its growth is zero-filled.
///
/// # Errors
/// The errors of [`inverse`].
pub fn inverse_into(deltas: &[u8], cell_size: usize, out: &mut Vec<u8>) -> Result<()> {
    check(deltas, cell_size)?;
    let cells = deltas.len() / cell_size;
    out.resize(deltas.len(), 0);
    let out = &mut out[..];
    let mut lane = 0usize;
    while lane < cell_size {
        let group = (cell_size - lane).min(8);
        match group {
            1 => lane_group::<1>(deltas, cells, cell_size, lane, out),
            2 => lane_group::<2>(deltas, cells, cell_size, lane, out),
            3 => lane_group::<3>(deltas, cells, cell_size, lane, out),
            4 => lane_group::<4>(deltas, cells, cell_size, lane, out),
            5 => lane_group::<5>(deltas, cells, cell_size, lane, out),
            6 => lane_group::<6>(deltas, cells, cell_size, lane, out),
            7 => lane_group::<7>(deltas, cells, cell_size, lane, out),
            _ => lane_group::<8>(deltas, cells, cell_size, lane, out),
        }
        lane += group;
    }
    Ok(())
}

/// Rebuilds lanes `lane..lane + R` of every cell with [`cell_kernel`].
///
/// When the group is the whole cell, the kernel is instantiated with the
/// stride as a constant, which turns every cell's store into one `R`-byte
/// move; kept out of line so that each instance is compiled on its own.
#[inline(never)]
fn lane_group<const R: usize>(
    deltas: &[u8],
    cells: usize,
    cell_size: usize,
    lane: usize,
    out: &mut [u8],
) {
    if cell_size == R {
        cell_kernel::<R>(deltas, cells, R, 0, out);
    } else {
        cell_kernel::<R>(deltas, cells, cell_size, lane, out);
    }
}

/// Whole-cell delta inverse for lanes `lane..lane + R`: `R` independent add
/// chains and one contiguous `R`-byte store per cell. A block of 8 cells
/// whose deltas are zero in every lane is 8 copies of the previous cell.
#[inline(always)]
fn cell_kernel<const R: usize>(
    deltas: &[u8],
    cells: usize,
    cell_size: usize,
    lane: usize,
    out: &mut [u8],
) {
    let rows: [&[u8]; R] =
        std::array::from_fn(|k| &deltas[(lane + k) * cells..(lane + k + 1) * cells]);
    let mut prev = [0u8; R];
    let blocks = cells / 8;
    for cell in (0..blocks * 8).step_by(8) {
        let dst = &mut out[cell * cell_size..(cell + 8) * cell_size];
        let zero = rows
            .iter()
            .all(|row| u64::from_ne_bytes(row[cell..cell + 8].try_into().expect("8 bytes")) == 0);
        if zero {
            // Packed once per block, so each copy is one store rather than
            // `R` byte stores.
            let word = prev
                .iter()
                .rev()
                .fold(0u64, |w, &b| w << 8 | u64::from(b))
                .to_le_bytes();
            for c in dst.chunks_exact_mut(cell_size) {
                c[lane..lane + R].copy_from_slice(&word[..R]);
            }
        } else {
            for (j, c) in dst.chunks_exact_mut(cell_size).enumerate() {
                for k in 0..R {
                    prev[k] = prev[k].wrapping_add(rows[k][cell + j]);
                }
                c[lane..lane + R].copy_from_slice(&prev);
            }
        }
    }
    let tail = blocks * 8;
    for (j, c) in out[tail * cell_size..]
        .chunks_exact_mut(cell_size)
        .enumerate()
    {
        for k in 0..R {
            prev[k] = prev[k].wrapping_add(rows[k][tail + j]);
        }
        c[lane..lane + R].copy_from_slice(&prev);
    }
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
        // Cell sizes below 8 (one lane group), at and above it (groups of 8
        // plus the lanes left over), and cell counts straddling the 8-cell
        // blocks.
        for cell_size in (1usize..=16).chain([24]) {
            for cells in [0usize, 1, 5, 7, 8, 9, 40, 129] {
                let n = cell_size * cells;
                let (cell, lane) = (|i: usize| i / cell_size, |i: usize| i % cell_size);
                let payloads: [(&str, Vec<u8>); 4] = [
                    (
                        "noise",
                        (0..n)
                            .map(|i| (i.wrapping_mul(31) ^ (i >> 3)) as u8)
                            .collect(),
                    ),
                    // One value per 16 cells: every other block is zero in
                    // all lanes and takes the shortcut.
                    (
                        "steps",
                        (0..n)
                            .map(|i| (cell(i) / 16 * 37 + lane(i) * 11 + 1) as u8)
                            .collect(),
                    ),
                    // One lane moves per block: the others are zero there.
                    (
                        "one lane",
                        (0..n)
                            .map(|i| {
                                if lane(i) == cell(i) / 8 % cell_size {
                                    cell(i) as u8
                                } else {
                                    0xA5
                                }
                            })
                            .collect(),
                    ),
                    // Flat blocks, then a tail of `cells % 8` cells that moves.
                    (
                        "flat tail",
                        (0..n)
                            .map(|i| {
                                if cell(i) >= cells / 8 * 8 {
                                    i as u8
                                } else {
                                    lane(i) as u8 + 7
                                }
                            })
                            .collect(),
                    ),
                ];
                for (name, data) in payloads {
                    let at = format!("{name} cs={cell_size} cells={cells}");
                    let fast = forward(&data, cell_size).unwrap();
                    let slow = scalar::forward(&data, cell_size).unwrap();
                    assert_eq!(fast, slow, "forward {at}");
                    assert_eq!(
                        inverse(&fast, cell_size).unwrap(),
                        scalar::inverse(&slow, cell_size).unwrap(),
                        "inverse {at}"
                    );
                    assert_eq!(inverse(&fast, cell_size).unwrap(), data, "{at}");
                }
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
