//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for torn-write
//! detection in the storage layer and any other integrity checking.
//!
//! The storage layer checksums every page frame it reads, so on a large
//! range query the CRC is the single biggest CPU cost of the I/O path. Two
//! implementations compute it, and neither changes a value: both match
//! zlib's `crc32`, so values can be cross-checked against external tools
//! and every frame ever written still verifies.
//!
//! * **Carry-less folding** (x86-64 with PCLMULQDQ and SSE4.1, checked at
//!   run time). Four 128-bit registers each fold every fourth 16-byte block
//!   forward by 512 bits, one carry-less multiply per half, so the four
//!   chains run in parallel. They are joined by folding each into the next
//!   over 128 bits, and a Barrett reduction turns the last register into
//!   the CRC (Intel, "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction", 2009). Every multiplier is `x^n mod P` for the
//!   distance it folds over, derived from the polynomial in the tests.
//! * **Slicing-by-16** everywhere else, for inputs too short to fold and
//!   for the tail after the last whole 16-byte block: sixteen derived
//!   tables let one step consume 16 bytes instead of 1.

use std::sync::OnceLock;

/// Reflected CRC-32 polynomial (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per sliced step; one derived table per byte of stride.
const STRIDE: usize = 16;

fn tables() -> &'static [[u32; 256]; STRIDE] {
    static TABLES: OnceLock<[[u32; 256]; STRIDE]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; STRIDE];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            t[0][i as usize] = c;
        }
        // t[k][b] = CRC of byte b followed by k zero bytes: lets one step
        // combine 16 table lookups covering 16 input bytes.
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..STRIDE {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// CRC-32 of `data` (IEEE, initial value 0).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 computation: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
#[must_use]
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= fold::MIN_LEN && fold::available() {
        // SAFETY: `available` checked that this CPU has the features
        // `fold::update` is compiled for.
        return unsafe { fold::update(crc, data) };
    }
    sliced_update(crc, data)
}

/// [`crc32_update`] by slicing-by-16 alone.
fn sliced_update(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = !crc;
    let word =
        |ch: &[u8], at: usize| u32::from_le_bytes(ch[at..at + 4].try_into().expect("4 bytes"));
    let mut chunks = data.chunks_exact(STRIDE);
    for ch in &mut chunks {
        let w0 = word(ch, 0) ^ c;
        let (w1, w2, w3) = (word(ch, 4), word(ch, 8), word(ch, 12));
        let fold = |w: u32, base: usize| {
            t[base + 3][(w & 0xFF) as usize]
                ^ t[base + 2][((w >> 8) & 0xFF) as usize]
                ^ t[base + 1][((w >> 16) & 0xFF) as usize]
                ^ t[base][(w >> 24) as usize]
        };
        c = fold(w0, 12) ^ fold(w1, 8) ^ fold(w2, 4) ^ fold(w3, 0);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC-32 by carry-less multiplication (see the module doc).
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input folded: one 16-byte block for each register.
    pub(super) const MIN_LEN: usize = 64;

    // Fold multipliers, each `reflect32(x^n mod P) << 1`. Moving a
    // register forward by `d` bits multiplies its two halves by the
    // multipliers for `n = d + 32` and `n = d − 32`.
    pub(super) const X544: i64 = 0x1_5444_2BD4; // n = 4·128 + 32
    pub(super) const X480: i64 = 0x1_C6E4_1596; // n = 4·128 − 32
    pub(super) const X160: i64 = 0x1_7519_97D0; // n = 128 + 32
    pub(super) const X96: i64 = 0x0_CCAA_009E; // n = 128 − 32
    pub(super) const X64: i64 = 0x1_63CD_6124; // n = 64
    /// The full 33-bit polynomial, reflected.
    pub(super) const P: i64 = 0x1_DB71_0641;
    /// Barrett's `floor(x^64 / P)`, reflected over 33 bits.
    pub(super) const MU: i64 = 0x1_F701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// [`super::crc32_update`] for `data` of at least [`MIN_LEN`] bytes.
    ///
    /// # Safety
    ///
    /// Calling it needs `unsafe` outside code compiled for the same
    /// features: the CPU must have them, as [`available`] checks.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let head = |i: usize| load(&data[16 * i..16 * (i + 1)]);
        let mut x = [head(0), head(1), head(2), head(3)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!crc as i32));

        // Four chains, each folded forward by four blocks at a time.
        let by4 = _mm_set_epi64x(X480, X544);
        let mut blocks = data[MIN_LEN..].chunks_exact(MIN_LEN);
        for group in &mut blocks {
            for (r, block) in x.iter_mut().zip(group.chunks_exact(16)) {
                *r = fold(*r, load(block), by4);
            }
        }
        // Join them, then fold in the last whole blocks one at a time.
        let by1 = _mm_set_epi64x(X96, X160);
        let mut r = fold(fold(fold(x[0], x[1], by1), x[2], by1), x[3], by1);
        let mut singles = blocks.remainder().chunks_exact(16);
        for block in &mut singles {
            r = fold(r, load(block), by1);
        }

        // 128 → 64 bits, then Barrett's reduction to the 32-bit register.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let r = _mm_xor_si128(_mm_clmulepi64_si128(r, by1, 0x10), _mm_srli_si128(r, 8));
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low32), _mm_set_epi64x(0, X64), 0x00),
            _mm_srli_si128(r, 4),
        );
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(r, t2), 1) as u32;
        super::sliced_update(!c, singles.remainder())
    }

    /// `r` moved forward by the distance `k` encodes, XOR `block`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(r: __m128i, block: __m128i, k: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(r, k, 0x00);
        let high = _mm_clmulepi64_si128(r, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(block, low), high)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("16 bytes");
        // SAFETY: `block` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytewise reference: one bit at a time, no tables.
    fn reference_update(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn known_page_vectors() {
        // One 8 KiB page and a length with a tail; both values agree with
        // zlib's crc32.
        let data = pattern(8213);
        assert_eq!(crc32(&data[..8192]), 0x484D_7174);
        assert_eq!(crc32(&data), 0x960D_AF1C);
        assert_eq!(sliced_update(0, &data[..8192]), 0x484D_7174);
        assert_eq!(sliced_update(0, &data), 0x960D_AF1C);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(data));
        }
    }

    /// Every length up to a few fold groups, then every 7th, plus both
    /// sides of every 1 KiB edge.
    fn boundary_points(max: usize) -> Vec<usize> {
        let mut points: Vec<usize> = (0..=300).chain((0..=max).step_by(7)).collect();
        for edge in (0..=max + 1024).step_by(1024) {
            for d in [0, 1, 2, 15, 16, 17, 33, 63, 64, 65] {
                points.extend([edge.saturating_sub(d), edge + d]);
            }
        }
        points.retain(|&p| p <= max);
        points.sort_unstable();
        points.dedup();
        points
    }

    #[test]
    fn both_paths_match_bytewise_reference() {
        let max = (16 << 10) + 33;
        let data = pattern(max);
        // The reference CRC of every prefix, in one pass.
        let mut prefix = vec![0u32; max + 1];
        for n in 0..max {
            prefix[n + 1] = reference_update(prefix[n], &data[n..=n]);
        }
        let points = boundary_points(max);
        for &n in &points {
            assert_eq!(crc32(&data[..n]), prefix[n], "length {n}");
            assert_eq!(sliced_update(0, &data[..n]), prefix[n], "length {n}");
        }
        // Splits move the block grid and start from a non-zero register;
        // odd offsets make every load unaligned.
        let whole = prefix[max];
        for &split in &points {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(prefix[split], b), whole, "split {split}");
            assert_eq!(crc32_update(crc32(a), b), whole, "split {split}");
            assert_eq!(sliced_update(prefix[split], b), whole, "split {split}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_multipliers_derive_from_the_polynomial() {
        // The polynomial in normal bit order, with its x^32 term.
        let p = u64::from(POLY.reverse_bits()) | 1 << 32;
        let x_pow_mod = |n: u32| {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 & 1 != 0 {
                    r ^ p
                } else {
                    r
                }
            })
        };
        let multiplier = |n| (u64::from((x_pow_mod(n) as u32).reverse_bits()) << 1) as i64;
        assert_eq!(multiplier(4 * 128 + 32), fold::X544);
        assert_eq!(multiplier(4 * 128 - 32), fold::X480);
        assert_eq!(multiplier(128 + 32), fold::X160);
        assert_eq!(multiplier(128 - 32), fold::X96);
        assert_eq!(multiplier(64), fold::X64);
        // Barrett's quotient floor(x^64 / P), by long division.
        let (mut rem, mut mu) = (1u128 << 64, 0u128);
        while rem >> 32 != 0 {
            let shift = 127 - rem.leading_zeros() - 32;
            mu |= 1 << shift;
            rem ^= u128::from(p) << shift;
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(reflect33(mu as u64), fold::MU);
        assert_eq!(reflect33(p), fold::P);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut page = vec![0xA5u8; 512];
        let clean = crc32(&page);
        for bit in [0usize, 7, 100 * 8 + 3, 511 * 8 + 7] {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&page), clean, "flip at bit {bit} undetected");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&page), clean);
    }

    #[test]
    fn detects_truncation_against_zero_fill() {
        // A torn write leaves the tail zeroed: the checksum must differ.
        let full: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let mut torn = full.clone();
        for t in &mut torn[512..] {
            *t = 0;
        }
        assert_ne!(crc32(&torn), crc32(&full));
    }
}
