//! PackBits-style byte run-length coding.
//!
//! Control byte `c`:
//! * `0..=127` — literal run: the next `c + 1` bytes are copied verbatim;
//! * `128..=255` — repeat run: the next byte repeats `c - 126` times
//!   (2..=129 copies).
//!
//! Worst-case expansion is 1/128 over the input; long constant runs (the
//! common case for background areas of raster tiles) compress ~64:1.
//!
//! The encoder is word-wide: repeat runs are measured 8 bytes at a time
//! (u64 load, XOR against the splatted run byte, `trailing_zeros` to find
//! the first mismatch) and the literal scan finds the next `>= 3` repeat
//! with a SWAR zero-byte test over two shifted XORs, so incompressible
//! stretches advance 8 positions per iteration instead of 1. The output is
//! byte-identical to the byte-at-a-time reference encoder the unit tests
//! pin it against.

use crate::error::{CompressError, Result};

/// Reference byte-at-a-time implementation, test-only: the word-wide
/// [`encode`] must produce byte-identical streams.
#[cfg(test)]
mod scalar {
    use super::{CompressError, Result};

    /// Encodes `input` with PackBits, one byte at a time.
    #[must_use]
    pub fn encode(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 4 + 8);
        let mut i = 0;
        while i < input.len() {
            // Measure the repeat run at i.
            let b = input[i];
            let mut run = 1usize;
            while run < 129 && i + run < input.len() && input[i + run] == b {
                run += 1;
            }
            if run >= 2 {
                out.push((run + 126) as u8);
                out.push(b);
                i += run;
                continue;
            }
            // Literal run: scan until a repeat of >= 3 starts (a 2-repeat is
            // not worth breaking a literal for) or 128 bytes accumulate.
            let start = i;
            i += 1;
            while i < input.len() && i - start < 128 {
                let b = input[i];
                let mut ahead = 1usize;
                while ahead < 3 && i + ahead < input.len() && input[i + ahead] == b {
                    ahead += 1;
                }
                if ahead >= 3 {
                    break;
                }
                i += 1;
            }
            let len = i - start;
            out.push((len - 1) as u8);
            out.extend_from_slice(&input[start..i]);
        }
        out
    }

    /// Decodes a PackBits stream, checking `expected_len` only at the end.
    ///
    /// # Errors
    /// [`CompressError::Corrupt`] on truncated runs,
    /// [`CompressError::LengthMismatch`] when the total differs.
    pub fn decode(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0;
        while i < input.len() {
            let c = input[i];
            i += 1;
            if c <= 127 {
                let len = c as usize + 1;
                let lit = input
                    .get(i..i + len)
                    .ok_or_else(|| CompressError::Corrupt("truncated literal run".to_string()))?;
                out.extend_from_slice(lit);
                i += len;
            } else {
                let count = c as usize - 126;
                let b = *input
                    .get(i)
                    .ok_or_else(|| CompressError::Corrupt("truncated repeat run".to_string()))?;
                i += 1;
                out.resize(out.len() + count, b);
            }
        }
        if out.len() != expected_len {
            return Err(CompressError::LengthMismatch {
                expected: expected_len as u64,
                got: out.len() as u64,
            });
        }
        Ok(out)
    }
}

/// Every-byte-repeated mask for SWAR tricks.
const LSB: u64 = 0x0101_0101_0101_0101;
/// High bit of every byte.
const MSB: u64 = 0x8080_8080_8080_8080;

/// Loads 8 little-endian bytes starting at `input[i]` (caller guarantees
/// `i + 8 <= input.len()`).
#[inline]
fn load_u64(input: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(input[i..i + 8].try_into().expect("8-byte window"))
}

/// SWAR zero-byte mask: the high bit of byte `j` is set if byte `j` of `x`
/// is zero — exact at and below the first zero byte, possible false
/// positives only above it (borrow propagation), so callers that need a
/// *position* must verify the candidate.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LSB) & !x & MSB
}

/// Length of the run of bytes equal to `input[i]` starting at `i`, capped
/// at `cap`: u64 loads, XOR against the splatted byte, `trailing_zeros` of
/// the first mismatching word.
#[inline]
fn run_len(input: &[u8], i: usize, cap: usize) -> usize {
    let b = input[i];
    let max = cap.min(input.len() - i);
    let splat = u64::from(b) * LSB;
    let mut n = 1usize;
    while n + 8 <= max {
        let x = load_u64(input, i + n) ^ splat;
        if x == 0 {
            n += 8;
            continue;
        }
        return (n + (x.trailing_zeros() / 8) as usize).min(max);
    }
    while n < max && input[i + n] == b {
        n += 1;
    }
    n
}

/// First index in `[from, cap_end)` where a repeat of `>= 3` equal bytes
/// starts, or `cap_end` if none: 8 candidate positions are tested per
/// iteration via a zero-byte scan over `w ^ (w >> 8)`-style shifted XORs.
#[inline]
fn next_repeat(input: &[u8], from: usize, cap_end: usize) -> usize {
    let mut i = from;
    // Word-wide: test positions i..i+8 at once. Position j starts a 3-run
    // iff input[j] == input[j+1] == input[j+2], i.e. byte j is zero in both
    // shifted XORs; the windows need i+8+2 bytes of lookahead.
    while i + 10 <= input.len() && i < cap_end {
        let w0 = load_u64(input, i);
        // `zero_bytes` never misses the first genuine zero, so an all-zero
        // mask proves no adjacent-equal pair in this window — the common
        // case in incompressible data; skip the second window entirely.
        let m1 = zero_bytes(w0 ^ load_u64(input, i + 1));
        if m1 == 0 {
            i += 8;
            continue;
        }
        let mut m = m1 & zero_bytes(w0 ^ load_u64(input, i + 2));
        if m == 0 {
            i += 8;
            continue;
        }
        // Candidates may be false positives above the first genuine zero:
        // verify from the lowest bit up.
        while m != 0 {
            let j = i + (m.trailing_zeros() / 8) as usize;
            if j >= cap_end {
                return cap_end;
            }
            if input[j] == input[j + 1] && input[j] == input[j + 2] {
                return j;
            }
            m &= m - 1;
        }
        i += 8;
    }
    // Scalar tail (fewer than 10 bytes of lookahead remain).
    while i < cap_end {
        if i + 2 < input.len() && input[i] == input[i + 1] && input[i] == input[i + 2] {
            return i;
        }
        i += 1;
    }
    cap_end
}

/// Encodes `input` with PackBits. Byte-identical to a byte-at-a-time
/// encoder, with word-wide run detection and literal scanning.
#[must_use]
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 8);
    let mut i = 0;
    while i < input.len() {
        let run = run_len(input, i, 129);
        if run >= 2 {
            out.push((run + 126) as u8);
            out.push(input[i]);
            i += run;
            continue;
        }
        // Literal run: extends to the next >= 3 repeat (a 2-repeat is not
        // worth breaking a literal for) or 128 bytes, whichever is first.
        let start = i;
        let end = next_repeat(input, i + 1, (start + 128).min(input.len()));
        out.push((end - start - 1) as u8);
        out.extend_from_slice(&input[start..end]);
        i = end;
    }
    out
}

/// Decodes a PackBits stream produced by [`encode`].
///
/// Bails out with [`CompressError::Corrupt`] the moment the output would
/// exceed `expected_len`, so a corrupt repeat-heavy stream cannot balloon
/// the allocation to ~64x the real payload before being rejected.
///
/// # Errors
/// [`CompressError::Corrupt`] on truncated runs or output overflow,
/// [`CompressError::LengthMismatch`] when the stream decodes short.
pub fn decode(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decode_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// Like [`decode`], but into `out` (cleared first), so a caller decoding
/// many streams reuses one allocation.
///
/// # Errors
/// The errors of [`decode`]; `out` then holds an unspecified prefix.
pub fn decode_into(input: &[u8], expected_len: usize, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    out.reserve(expected_len);
    let mut i = 0;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c <= 127 {
            let len = c as usize + 1;
            if out.len() + len > expected_len {
                return Err(CompressError::Corrupt(
                    "decoded output exceeds expected length".to_string(),
                ));
            }
            let lit = input
                .get(i..i + len)
                .ok_or_else(|| CompressError::Corrupt("truncated literal run".to_string()))?;
            out.extend_from_slice(lit);
            i += len;
        } else {
            let count = c as usize - 126;
            if out.len() + count > expected_len {
                return Err(CompressError::Corrupt(
                    "decoded output exceeds expected length".to_string(),
                ));
            }
            let b = *input
                .get(i)
                .ok_or_else(|| CompressError::Corrupt("truncated repeat run".to_string()))?;
            i += 1;
            out.resize(out.len() + count, b);
        }
    }
    if out.len() != expected_len {
        return Err(CompressError::LengthMismatch {
            expected: expected_len as u64,
            got: out.len() as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let enc = encode(data);
        assert_eq!(enc, scalar::encode(data), "fast/scalar encode diverge");
        assert_eq!(decode(&enc, data.len()).unwrap(), data);
        assert_eq!(scalar::decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[42]);
    }

    #[test]
    fn constant_run_compresses_hard() {
        let data = vec![7u8; 10_000];
        let enc = encode(&data);
        assert!(enc.len() < 200, "constant run: {} bytes", enc.len());
        assert_eq!(decode(&enc, data.len()).unwrap(), data);
        round_trip(&data);
    }

    #[test]
    fn incompressible_expands_bounded() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let enc = encode(&data);
        assert!(enc.len() <= data.len() + data.len() / 128 + 2);
        round_trip(&data);
    }

    #[test]
    fn mixed_runs() {
        let mut data = Vec::new();
        data.extend_from_slice(&[1, 2, 3]);
        data.extend(std::iter::repeat_n(9u8, 50));
        data.extend_from_slice(&[4, 4, 5, 6]);
        data.extend(std::iter::repeat_n(0u8, 300));
        round_trip(&data);
    }

    #[test]
    fn word_wide_matches_scalar_on_adversarial_layouts() {
        // Run/literal boundaries at every offset relative to the 8-byte
        // windows, 2-repeats that must NOT break literals, 3-repeats that
        // must, and runs crossing the 129 cap.
        for shift in 0..9usize {
            let mut data = vec![0xABu8; shift];
            for k in 0..40u8 {
                data.push(k);
                data.push(k); // 2-repeat inside a literal
            }
            data.extend(std::iter::repeat_n(0x11u8, 3)); // minimal break
            data.extend((0..70u8).map(|v| v.wrapping_mul(13)));
            data.extend(std::iter::repeat_n(0x22u8, 129 + shift)); // cap split
            data.extend((0..200u8).map(|v| v ^ 0x5A));
            round_trip(&data);
        }
    }

    /// The word-wide encoder emits byte-identical streams to the reference,
    /// and both decoders agree, on payloads spanning constant runs, ramps,
    /// sparse spikes and noise.
    #[test]
    fn word_wide_packbits_matches_scalar() {
        use crate::test_payloads::structured;
        use tilestore_testkit::prop::check;
        use tilestore_testkit::prop_assert_eq;
        check(
            "word_wide_packbits_matches_scalar",
            256,
            |s| {
                let cell_size = s.usize_in(1, 4);
                structured(s, cell_size)
            },
            |data| {
                let fast = encode(data);
                prop_assert_eq!(&fast, &scalar::encode(data), "encoded streams diverge");
                prop_assert_eq!(decode(&fast, data.len()).unwrap(), *data);
                prop_assert_eq!(scalar::decode(&fast, data.len()).unwrap(), *data);
                Ok(())
            },
        );
    }

    #[test]
    fn truncated_streams_error() {
        let enc = encode(&[1, 1, 1, 1, 1]);
        assert!(decode(&enc[..enc.len() - 1], 5).is_err());
        assert!(decode(&enc, 4).is_err());
    }

    #[test]
    fn oversized_output_bails_before_decoding_everything() {
        // A stream of max-repeat runs claiming ~12.9 KB against an expected
        // length of 64 bytes: the decoder must reject it on the first run
        // that overflows, not after materializing the whole thing.
        let mut stream = Vec::new();
        for _ in 0..100 {
            stream.push(255u8); // repeat x129
            stream.push(0xEE);
        }
        let err = decode(&stream, 64).unwrap_err();
        assert!(matches!(err, CompressError::Corrupt(_)), "{err:?}");
    }
}
