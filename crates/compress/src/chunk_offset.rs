//! Chunk-offset compression for sparse tiles.
//!
//! The scheme of Zhao, Deshpande & Naughton (SIGMOD'97), cited by the paper
//! as the sparse-tile representation in array OLAP systems: a tile whose
//! cells are mostly a default value stores only `(cell offset, cell value)`
//! pairs for the exceptional cells. Pays off below roughly
//! `cell_size / (cell_size + varint)` density; [`worthwhile`] estimates it.

use crate::error::{CompressError, Result};
use crate::varint::{read_varint, write_varint};

/// Encodes `payload` (cells of `cell_size` bytes) against `default`.
///
/// Stream layout: `varint cell_count`, `default cell bytes`, `varint
/// non_default_count`, then per exceptional cell `varint delta_offset`
/// (gap from the previous exceptional cell index, first is absolute) and
/// the cell bytes.
///
/// # Errors
/// [`CompressError::ZeroCellSize`] / [`CompressError::BadPayload`] when the
/// payload is not whole cells or the default has the wrong length.
pub fn encode(payload: &[u8], default: &[u8]) -> Result<Vec<u8>> {
    let cell_size = default.len();
    if cell_size == 0 {
        return Err(CompressError::ZeroCellSize);
    }
    if !payload.len().is_multiple_of(cell_size) {
        return Err(CompressError::BadPayload {
            len: payload.len(),
            cell_size,
        });
    }
    let cells = payload.len() / cell_size;
    let mut out = Vec::with_capacity(payload.len() / 8 + cell_size + 16);
    write_varint(&mut out, cells as u64);
    out.extend_from_slice(default);
    // First pass: count exceptions.
    let exceptional: Vec<usize> = (0..cells)
        .filter(|&i| &payload[i * cell_size..(i + 1) * cell_size] != default)
        .collect();
    write_varint(&mut out, exceptional.len() as u64);
    let mut prev = 0u64;
    for (k, &i) in exceptional.iter().enumerate() {
        let gap = if k == 0 { i as u64 } else { i as u64 - prev };
        prev = i as u64;
        write_varint(&mut out, gap);
        out.extend_from_slice(&payload[i * cell_size..(i + 1) * cell_size]);
    }
    Ok(out)
}

/// Decodes a stream produced by [`encode`] into a fresh buffer.
#[cfg(test)]
fn decode(stream: &[u8], cell_size: usize, expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decode_into(stream, cell_size, expected_len, &mut out)?;
    Ok(out)
}

/// Decodes a stream produced by [`encode`] into `out` (cleared first);
/// `cell_size` must match, and the stream must declare exactly
/// `expected_len` bytes of cells (checked before anything is allocated).
///
/// # Errors
/// [`CompressError::Corrupt`] on malformed streams.
pub fn decode_into(
    stream: &[u8],
    cell_size: usize,
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    if cell_size == 0 {
        return Err(CompressError::ZeroCellSize);
    }
    let mut pos = 0usize;
    let cells = read_varint(stream, &mut pos)?;
    if cells.checked_mul(cell_size as u64) != Some(expected_len as u64) {
        return Err(CompressError::Corrupt(format!(
            "{cells} cells of {cell_size} bytes, expected {expected_len} bytes"
        )));
    }
    let cells = cells as usize;
    let default = stream
        .get(pos..pos + cell_size)
        .ok_or_else(|| CompressError::Corrupt("truncated default cell".to_string()))?
        .to_vec();
    pos += cell_size;
    out.clear();
    out.reserve(expected_len);
    for _ in 0..cells {
        out.extend_from_slice(&default);
    }
    let exceptions = read_varint(stream, &mut pos)? as usize;
    let mut index = 0u64;
    for k in 0..exceptions {
        let gap = read_varint(stream, &mut pos)?;
        index = if k == 0 {
            gap
        } else {
            index
                .checked_add(gap)
                .ok_or_else(|| CompressError::Corrupt(format!("exception gap {gap} overflows")))?
        };
        if index >= cells as u64 {
            return Err(CompressError::Corrupt(format!(
                "exception offset {index} beyond {cells} cells"
            )));
        }
        let i = index as usize;
        let value = stream
            .get(pos..pos + cell_size)
            .ok_or_else(|| CompressError::Corrupt("truncated exception cell".to_string()))?;
        out[i * cell_size..(i + 1) * cell_size].copy_from_slice(value);
        pos += cell_size;
    }
    if pos != stream.len() {
        return Err(CompressError::Corrupt(format!(
            "{} trailing bytes",
            stream.len() - pos
        )));
    }
    Ok(())
}

/// Estimated compressed size for a tile of `cells` cells with
/// `non_default` exceptions — used by selective compression to decide
/// whether the codec is worth trying.
#[must_use]
pub fn estimated_size(cells: u64, non_default: u64, cell_size: usize) -> u64 {
    // varints ≈ 2 bytes average for tile-scale numbers.
    let _ = cells;
    4 + cell_size as u64 + 2 + non_default * (2 + cell_size as u64)
}

/// Whether chunk-offset is likely to beat the raw representation at the
/// observed density.
#[must_use]
pub fn worthwhile(cells: u64, non_default: u64, cell_size: usize) -> bool {
    estimated_size(cells, non_default, cell_size) < cells * cell_size as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let payload: Vec<u8> = (0..400u16).flat_map(|v| v.to_le_bytes()).collect();
        let enc = encode(&payload, &[0, 0]).unwrap();
        assert_eq!(decode(&enc, 2, payload.len()).unwrap(), payload);
    }

    #[test]
    fn sparse_tile_shrinks_dramatically() {
        // 10_000 4-byte cells, 20 non-default.
        let mut payload = vec![0u8; 40_000];
        for k in 0..20usize {
            let i = k * 487;
            payload[i * 4..i * 4 + 4].copy_from_slice(&(k as u32 + 1).to_le_bytes());
        }
        let enc = encode(&payload, &[0, 0, 0, 0]).unwrap();
        assert!(enc.len() < 200, "sparse stream is {} bytes", enc.len());
        assert_eq!(decode(&enc, 4, payload.len()).unwrap(), payload);
        assert!(worthwhile(10_000, 20, 4));
        assert!(!worthwhile(10_000, 9_500, 4));
    }

    #[test]
    fn non_zero_default() {
        let default = 0xFFFFu16.to_le_bytes();
        let mut payload: Vec<u8> = std::iter::repeat_n(default, 100).flatten().collect();
        payload[50..52].copy_from_slice(&7u16.to_le_bytes());
        let enc = encode(&payload, &default).unwrap();
        assert_eq!(decode(&enc, 2, payload.len()).unwrap(), payload);
    }

    #[test]
    fn empty_payload() {
        let enc = encode(&[], &[0]).unwrap();
        assert_eq!(decode(&enc, 1, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupt_streams_error() {
        let payload = vec![1u8; 16];
        let enc = encode(&payload, &[0]).unwrap();
        assert!(decode(&enc[..enc.len() - 1], 1, 16).is_err());
        assert!(decode(&enc, 2, 16).is_err());
        let mut trailing = enc;
        trailing.push(0);
        assert!(decode(&trailing, 1, 16).is_err());

        let corrupt = |stream: &[u8]| match decode(stream, 1, 16) {
            Err(CompressError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // 2^40 cells where 16 bytes are expected: refused before allocating.
        let mut huge = Vec::new();
        write_varint(&mut huge, 1 << 40);
        huge.push(0);
        write_varint(&mut huge, 0);
        corrupt(&huge);
        // A second gap that overflows the running index.
        let mut wrap = Vec::new();
        write_varint(&mut wrap, 16);
        wrap.push(0);
        write_varint(&mut wrap, 2);
        write_varint(&mut wrap, 1);
        wrap.push(9);
        write_varint(&mut wrap, u64::MAX);
        wrap.push(9);
        corrupt(&wrap);
    }

    #[test]
    fn validation() {
        assert!(encode(&[1, 2, 3], &[0, 0]).is_err());
        assert!(encode(&[1], &[]).is_err());
        assert!(decode(&[], 0, 0).is_err());
    }
}
