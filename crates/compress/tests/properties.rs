//! Property tests: every codec and policy must round-trip arbitrary
//! payloads exactly, and selective compression must never expand beyond
//! the framing overhead.

use tilestore_compress::{compress, decompress, CellContext, Codec, CompressionPolicy};
use tilestore_testkit::prop::{check, Source};
use tilestore_testkit::{prop_assert, prop_assert_eq};

#[path = "../src/test_payloads.rs"]
mod test_payloads;
use test_payloads::structured;

#[test]
fn every_codec_round_trips() {
    check(
        "every_codec_round_trips",
        256,
        |s| (s.usize_in(1, 5), s.vec_of(0, 511, Source::u8)),
        |(cell_size, data)| {
            // Trim to whole cells.
            let len = data.len() / cell_size * cell_size;
            let data = &data[..len];
            let default = vec![0u8; *cell_size];
            let ctx = CellContext {
                cell_size: *cell_size,
                default: &default,
            };
            for codec in [
                Codec::None,
                Codec::PackBits,
                Codec::DeltaPackBits,
                Codec::ChunkOffset,
            ] {
                let s = compress(&CompressionPolicy::Fixed(codec), data, &ctx).unwrap();
                prop_assert_eq!(decompress(&s, &ctx).unwrap(), data, "{:?}", codec);
            }
            Ok(())
        },
    );
}

#[test]
fn selective_round_trips_and_is_minimal() {
    check(
        "selective_round_trips_and_is_minimal",
        256,
        |s| {
            let cell_size = s.usize_in(1, 4);
            let data = structured(s, cell_size);
            (cell_size, data)
        },
        |(cell_size, data)| {
            let len = data.len() / cell_size * cell_size;
            let data = &data[..len];
            let default = vec![0u8; *cell_size];
            let ctx = CellContext {
                cell_size: *cell_size,
                default: &default,
            };
            let s = compress(&CompressionPolicy::selective_default(), data, &ctx).unwrap();
            prop_assert_eq!(decompress(&s, &ctx).unwrap(), data);
            // Never bigger than the raw framing.
            let raw = compress(&CompressionPolicy::None, data, &ctx).unwrap();
            prop_assert!(s.len() <= raw.len());
            Ok(())
        },
    );
}

#[test]
fn decompress_rejects_mutations() {
    check(
        "decompress_rejects_mutations",
        256,
        |s| (s.vec_of(4, 127, Source::u8), s.usize_in(0, 63)),
        |(data, flip)| {
            let default = [0u8];
            let ctx = CellContext {
                cell_size: 1,
                default: &default,
            };
            let mut s = compress(&CompressionPolicy::selective_default(), data, &ctx).unwrap();
            let i = flip % s.len();
            s[i] ^= 0xFF;
            // Mutation must either error or produce *something* — never panic.
            let _ = decompress(&s, &ctx);
            Ok(())
        },
    );
}

/// Policies (and codec lists inside them) survive a JSON round trip.
#[test]
fn policy_json_round_trip() {
    check(
        "policy_json_round_trip",
        64,
        |s| match s.weighted(&[1, 2, 2]) {
            0 => CompressionPolicy::None,
            1 => {
                let all = [
                    Codec::None,
                    Codec::PackBits,
                    Codec::DeltaPackBits,
                    Codec::ChunkOffset,
                ];
                CompressionPolicy::Fixed(all[s.usize_in(0, 3)])
            }
            _ => {
                let all = [
                    Codec::None,
                    Codec::PackBits,
                    Codec::DeltaPackBits,
                    Codec::ChunkOffset,
                ];
                CompressionPolicy::Selective(s.vec_of(0, 4, |s| all[s.usize_in(0, 3)]))
            }
        },
        |policy| {
            let text = tilestore_testkit::json::to_string(policy);
            let back: CompressionPolicy = tilestore_testkit::json::from_str(&text).unwrap();
            prop_assert_eq!(&back, policy);
            Ok(())
        },
    );
}
