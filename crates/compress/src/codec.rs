//! Self-describing codec streams and the selective-compression policy.
//!
//! Every compressed tile starts with a 1-byte codec tag and a varint of
//! the original length, so [`decompress`] needs no external metadata
//! besides the object's cell size and default value (both catalog
//! properties). [`CompressionPolicy::Selective`] reproduces RasDaMan's
//! "selective compression of blocks" (§8): try the candidate codecs per
//! tile and keep the smallest representation, falling back to raw.

use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::chunk_offset;
use crate::delta;
use crate::error::{CompressError, Result};
use crate::packbits;
use crate::varint::{read_varint, write_varint};

/// Codec identifiers (also the stream tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw bytes, no transform.
    None,
    /// PackBits byte run-length coding.
    PackBits,
    /// Byte-lane delta transform followed by PackBits.
    DeltaPackBits,
    /// Chunk-offset coding for sparse tiles (default-valued cells elided).
    ChunkOffset,
}

impl Codec {
    fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::PackBits => 1,
            Codec::DeltaPackBits => 2,
            Codec::ChunkOffset => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Codec::None),
            1 => Ok(Codec::PackBits),
            2 => Ok(Codec::DeltaPackBits),
            3 => Ok(Codec::ChunkOffset),
            other => Err(CompressError::UnknownCodec(other)),
        }
    }
}

impl ToJson for Codec {
    fn to_json(&self) -> Json {
        let name = match self {
            Codec::None => "none",
            Codec::PackBits => "packbits",
            Codec::DeltaPackBits => "delta_packbits",
            Codec::ChunkOffset => "chunk_offset",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for Codec {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        match &*r.str()? {
            "none" => Ok(Codec::None),
            "packbits" => Ok(Codec::PackBits),
            "delta_packbits" => Ok(Codec::DeltaPackBits),
            "chunk_offset" => Ok(Codec::ChunkOffset),
            _ => Err(JsonError::msg("unknown codec name")),
        }
    }
}

/// Per-object compression policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CompressionPolicy {
    /// Store tiles raw (still framed, so streams stay self-describing).
    #[default]
    None,
    /// Always use one codec.
    Fixed(Codec),
    /// Try every candidate per tile and keep the smallest stream —
    /// RasDaMan's selective block compression.
    Selective(Vec<Codec>),
}

impl CompressionPolicy {
    /// The usual selective set: PackBits for flat areas, delta+PackBits for
    /// smooth rasters, chunk-offset for sparse tiles.
    #[must_use]
    pub fn selective_default() -> Self {
        CompressionPolicy::Selective(vec![
            Codec::PackBits,
            Codec::DeltaPackBits,
            Codec::ChunkOffset,
        ])
    }
}

impl ToJson for CompressionPolicy {
    fn to_json(&self) -> Json {
        match self {
            CompressionPolicy::None => Json::obj(vec![("kind", Json::Str("none".to_string()))]),
            CompressionPolicy::Fixed(codec) => Json::obj(vec![
                ("kind", Json::Str("fixed".to_string())),
                ("codec", codec.to_json()),
            ]),
            CompressionPolicy::Selective(codecs) => Json::obj(vec![
                ("kind", Json::Str("selective".to_string())),
                ("codecs", codecs.to_json()),
            ]),
        }
    }
}

impl FromJson for CompressionPolicy {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let kind = required(r.tag("kind")?, "kind")?;
        let (mut codec, mut codecs) = (None, None);
        r.object(|r, key| match key {
            "codec" if kind == "fixed" => r.field(&mut codec),
            "codecs" if kind == "selective" => r.field(&mut codecs),
            _ => r.skip(),
        })?;
        match &*kind {
            "none" => Ok(CompressionPolicy::None),
            "fixed" => Ok(CompressionPolicy::Fixed(required(codec, "codec")?)),
            "selective" => Ok(CompressionPolicy::Selective(required(codecs, "codecs")?)),
            other => Err(JsonError::msg(format!("unknown policy kind {other:?}"))),
        }
    }
}

/// Context a codec needs about the tile's type.
#[derive(Debug, Clone)]
pub struct CellContext<'a> {
    /// Cell size in bytes.
    pub cell_size: usize,
    /// The type's default cell value (`cell_size` bytes).
    pub default: &'a [u8],
}

fn frame(codec: Codec, original_len: usize, body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 10);
    out.push(codec.tag());
    write_varint(&mut out, original_len as u64);
    out.extend_from_slice(&body);
    out
}

fn encode_with(codec: Codec, payload: &[u8], ctx: &CellContext<'_>) -> Result<Vec<u8>> {
    let body = match codec {
        Codec::None => payload.to_vec(),
        Codec::PackBits => packbits::encode(payload),
        Codec::DeltaPackBits => packbits::encode(&delta::forward(payload, ctx.cell_size)?),
        Codec::ChunkOffset => chunk_offset::encode(payload, ctx.default)?,
    };
    Ok(frame(codec, payload.len(), body))
}

/// Compresses `payload` under `policy`. The result is always a framed
/// stream, even for [`CompressionPolicy::None`].
///
/// # Errors
/// Codec validation errors (cell-size mismatches).
pub fn compress(
    policy: &CompressionPolicy,
    payload: &[u8],
    ctx: &CellContext<'_>,
) -> Result<Vec<u8>> {
    match policy {
        CompressionPolicy::None => encode_with(Codec::None, payload, ctx),
        CompressionPolicy::Fixed(codec) => {
            let candidate = encode_with(*codec, payload, ctx)?;
            // Never store an expansion: fall back to raw framing.
            let raw = encode_with(Codec::None, payload, ctx)?;
            Ok(if candidate.len() < raw.len() {
                candidate
            } else {
                raw
            })
        }
        CompressionPolicy::Selective(codecs) => {
            let mut best = encode_with(Codec::None, payload, ctx)?;
            for &codec in codecs {
                let candidate = encode_with(codec, payload, ctx)?;
                if candidate.len() < best.len() {
                    best = candidate;
                }
            }
            Ok(best)
        }
    }
}

/// Decompresses a framed stream produced by [`compress`].
///
/// # Errors
/// [`CompressError::Corrupt`] / [`CompressError::UnknownCodec`] /
/// [`CompressError::LengthMismatch`] on malformed streams.
pub fn decompress(stream: &[u8], ctx: &CellContext<'_>) -> Result<Vec<u8>> {
    let header = stream_header(stream)?;
    let mut out = Vec::new();
    decode_body(
        &header,
        &stream[header.body_offset..],
        ctx,
        &mut out,
        &mut Vec::new(),
    )?;
    Ok(out)
}

/// The header every framed stream opens with: the codec, the decoded
/// length, and where the body starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// The codec the body is encoded with.
    pub codec: Codec,
    /// Length of the decoded payload in bytes.
    pub original_len: usize,
    /// Bytes of the header: the body starts at this offset.
    pub body_offset: usize,
}

impl StreamHeader {
    /// Checks that a raw stream's body of `body_len` bytes is exactly the
    /// payload it declares.
    ///
    /// # Errors
    /// [`CompressError::LengthMismatch`].
    pub fn check_raw_body(&self, body_len: usize) -> Result<()> {
        if body_len != self.original_len {
            return Err(CompressError::LengthMismatch {
                expected: self.original_len as u64,
                got: body_len as u64,
            });
        }
        Ok(())
    }
}

/// Parses the header of a framed stream; `stream` need only hold its
/// first bytes. Readers that keep a stream in pieces (a blob's page
/// frames) use it to find a raw tile's cells without gathering them.
///
/// # Errors
/// [`CompressError::Corrupt`] / [`CompressError::UnknownCodec`].
pub fn stream_header(stream: &[u8]) -> Result<StreamHeader> {
    let tag = *stream
        .first()
        .ok_or_else(|| CompressError::Corrupt("empty stream".to_string()))?;
    let codec = Codec::from_tag(tag)?;
    let mut pos = 1usize;
    let original_len = read_varint(stream, &mut pos)? as usize;
    Ok(StreamHeader {
        codec,
        original_len,
        body_offset: pos,
    })
}

/// Decodes `body` as `header` describes into `out`; `stage` holds the
/// intermediate PackBits output of [`Codec::DeltaPackBits`].
fn decode_body(
    header: &StreamHeader,
    body: &[u8],
    ctx: &CellContext<'_>,
    out: &mut Vec<u8>,
    stage: &mut Vec<u8>,
) -> Result<()> {
    let len = header.original_len;
    match header.codec {
        Codec::None => {
            header.check_raw_body(body.len())?;
            out.clear();
            out.extend_from_slice(body);
        }
        Codec::PackBits => packbits::decode_into(body, len, out)?,
        Codec::DeltaPackBits => {
            packbits::decode_into(body, len, stage)?;
            delta::inverse_into(stage, ctx.cell_size, out)?;
        }
        Codec::ChunkOffset => chunk_offset::decode_into(body, ctx.cell_size, len, out)?,
    }
    if out.len() != len {
        return Err(CompressError::LengthMismatch {
            expected: len as u64,
            got: out.len() as u64,
        });
    }
    Ok(())
}

/// Decode buffers a reader keeps across the tiles of one query, so that
/// decoding allocates only when a tile outgrows them.
#[derive(Debug, Default)]
pub struct DecodeBuf {
    out: Vec<u8>,
    stage: Vec<u8>,
}

impl DecodeBuf {
    /// Decodes a framed stream into this buffer and returns the payload,
    /// mutable so that a masked read can rewrite it in place.
    ///
    /// # Errors
    /// The errors of [`decompress`].
    pub fn decode(&mut self, stream: &[u8], ctx: &CellContext<'_>) -> Result<&mut [u8]> {
        let header = stream_header(stream)?;
        decode_body(
            &header,
            &stream[header.body_offset..],
            ctx,
            &mut self.out,
            &mut self.stage,
        )?;
        Ok(&mut self.out)
    }
}

/// Which codec a framed stream used (for statistics).
///
/// # Errors
/// [`CompressError::Corrupt`] / [`CompressError::UnknownCodec`].
pub fn stream_codec(stream: &[u8]) -> Result<Codec> {
    let tag = *stream
        .first()
        .ok_or_else(|| CompressError::Corrupt("empty stream".to_string()))?;
    Codec::from_tag(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(cell_size: usize, default: &'a [u8]) -> CellContext<'a> {
        CellContext { cell_size, default }
    }

    #[test]
    fn none_policy_frames_raw() {
        let data = vec![1u8, 2, 3, 4];
        let c = ctx(2, &[0, 0]);
        let s = compress(&CompressionPolicy::None, &data, &c).unwrap();
        assert_eq!(stream_codec(&s).unwrap(), Codec::None);
        assert_eq!(decompress(&s, &c).unwrap(), data);
    }

    #[test]
    fn fixed_policy_never_expands() {
        // Random-ish data defeats PackBits; the fixed policy must fall back.
        let data: Vec<u8> = (0..2048u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = ctx(1, &[0]);
        let s = compress(&CompressionPolicy::Fixed(Codec::PackBits), &data, &c).unwrap();
        assert!(s.len() <= data.len() + 10);
        assert_eq!(decompress(&s, &c).unwrap(), data);
    }

    #[test]
    fn selective_picks_chunk_offset_for_sparse() {
        let mut data = vec![0u8; 8000]; // 2000 4-byte default cells
        data[400..404].copy_from_slice(&7u32.to_le_bytes());
        let default = 0u32.to_le_bytes();
        let c = ctx(4, &default);
        let s = compress(&CompressionPolicy::selective_default(), &data, &c).unwrap();
        // PackBits also does well on zeros, but either way it must shrink
        // hugely and decode exactly.
        assert!(s.len() < 200, "sparse tile stream: {} bytes", s.len());
        assert_eq!(decompress(&s, &c).unwrap(), data);
    }

    #[test]
    fn selective_picks_delta_for_smooth() {
        let data: Vec<u8> = (0..4000u16).flat_map(|v| v.to_le_bytes()).collect();
        let default = 0u16.to_le_bytes();
        let c = ctx(2, &default);
        let s = compress(&CompressionPolicy::selective_default(), &data, &c).unwrap();
        assert_eq!(stream_codec(&s).unwrap(), Codec::DeltaPackBits);
        assert!(s.len() < data.len() / 4, "smooth ramp: {} bytes", s.len());
        assert_eq!(decompress(&s, &c).unwrap(), data);
    }

    #[test]
    fn all_codecs_round_trip_mixed_data() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(&(if i % 7 == 0 { i } else { 0 }).to_le_bytes());
        }
        let default = 0u32.to_le_bytes();
        let c = ctx(4, &default);
        for codec in [
            Codec::None,
            Codec::PackBits,
            Codec::DeltaPackBits,
            Codec::ChunkOffset,
        ] {
            let s = compress(&CompressionPolicy::Fixed(codec), &data, &c).unwrap();
            assert_eq!(decompress(&s, &c).unwrap(), data, "{codec:?}");
        }
    }

    #[test]
    fn one_decode_buf_serves_every_codec_and_size() {
        let default = 0u32.to_le_bytes();
        let c = ctx(4, &default);
        let mut buf = DecodeBuf::default();
        // Large, small, large again: the buffers shrink and regrow between
        // tiles and every decode is exact.
        for cells in [4096u32, 3, 1000] {
            let data: Vec<u8> = (0..cells)
                .flat_map(|i| (if i % 5 == 0 { i * 3 } else { 0 }).to_le_bytes())
                .collect();
            for codec in [
                Codec::None,
                Codec::PackBits,
                Codec::DeltaPackBits,
                Codec::ChunkOffset,
            ] {
                let s = encode_with(codec, &data, &c).unwrap();
                let header = stream_header(&s).unwrap();
                assert_eq!((header.codec, header.original_len), (codec, data.len()));
                if codec == Codec::None {
                    assert_eq!(&s[header.body_offset..], &data[..]);
                }
                assert_eq!(buf.decode(&s, &c).unwrap(), &data[..], "{codec:?}");
            }
        }
        // A corrupt stream fails without spoiling the buffer.
        let good = encode_with(Codec::PackBits, &[7; 64], &c).unwrap();
        assert!(buf.decode(&good[..good.len() - 1], &c).is_err());
        assert!(buf.decode(&[], &c).is_err());
        assert_eq!(buf.decode(&good, &c).unwrap(), &[7; 64][..]);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let c = ctx(1, &[0]);
        assert!(decompress(&[], &c).is_err());
        assert!(decompress(&[99, 0], &c).is_err()); // unknown tag
        let good = compress(&CompressionPolicy::None, &[1, 2, 3], &c).unwrap();
        assert!(decompress(&good[..good.len() - 1], &c).is_err());
    }
}
