//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 little-endian payload length][payload: compact JSON, UTF-8]
//! ```
//!
//! Requests are objects `{"id": n, "op": "...", ...}` with an optional
//! `"deadline_ms"` budget. Responses echo the id:
//! `{"id": n, "ok": true, "result": ...}` on success,
//! `{"id": n, "ok": false, "error": "<code>", "message": "..."}` on failure,
//! where `<code>` is one of the [`ErrorCode`] names. Array payloads travel
//! hex-encoded (`cells_hex`) so results compare byte-identically across the
//! in-process and remote paths and the framing stays pure UTF-8 JSON.

use std::io::{Read, Write};

use tilestore_engine::QueryStats;
use tilestore_rasql::Value;
use tilestore_testkit::{Json, ToJson};

/// Upper bound on a frame payload (64 MiB): one query result over the wire.
/// Larger frames are rejected instead of letting a corrupt length prefix
/// trigger an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Typed failure classes a response can carry. Clients match on these to
/// distinguish "retry later" ([`ErrorCode::Busy`]) from "this request is
/// wrong" ([`ErrorCode::BadRequest`]) without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue is full; retry after backoff.
    Busy,
    /// The request's deadline expired before execution started.
    Deadline,
    /// The request was malformed (unknown op, missing/invalid fields).
    BadRequest,
    /// The engine rejected or failed the operation.
    Engine,
    /// The server is shutting down and no longer accepts work.
    Shutdown,
    /// A cluster coordinator could not reach one of its shards; the message
    /// names the failed shard. Typed so a partial failure surfaces as a
    /// prompt, identifiable error instead of a hung request.
    ShardUnavailable,
}

impl ErrorCode {
    /// The wire name of this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Deadline => "deadline",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Engine => "engine",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::ShardUnavailable => "shard_unavailable",
        }
    }

    /// Parses a wire name back into a code.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "busy" => ErrorCode::Busy,
            "deadline" => ErrorCode::Deadline,
            "bad_request" => ErrorCode::BadRequest,
            "engine" => ErrorCode::Engine,
            "shutdown" => ErrorCode::Shutdown,
            "shard_unavailable" => ErrorCode::ShardUnavailable,
            _ => return None,
        })
    }
}

/// Writes one frame.
///
/// # Errors
/// I/O errors from the underlying stream; `InvalidInput` for an oversized
/// payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME fits in u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Payload bytes a reader allocates ahead of the bytes it has received. A
/// frame that fits is read into one exact allocation; a longer one grows the
/// buffer by doubling as its bytes arrive, so a peer that sends a
/// [`MAX_FRAME`] prefix and nothing else costs one chunk, not 64 MiB.
pub(crate) const FRAME_CHUNK: usize = 1 << 20;

/// Outcome of filling a buffer from a stream.
enum Fill {
    Full,
    /// The stream ended after this many bytes.
    Eof(usize),
    /// The timeout policy gave up waiting.
    Abandoned,
}

/// Reads until `buf` is full. A read that times out asks `on_timeout`
/// (told whether a frame is in progress) what to do: `Ok(true)` keeps
/// waiting, `Ok(false)` abandons the read, `Err` fails it.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    in_frame: bool,
    on_timeout: &mut impl FnMut(bool, std::io::Error) -> std::io::Result<bool>,
) -> std::io::Result<Fill> {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Ok(Fill::Eof(filled)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == Interrupted => {}
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                if !on_timeout(in_frame || filled > 0, e)? {
                    return Ok(Fill::Abandoned);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// The one frame decoder behind [`read_frame`] and the server's
/// interruptible session reader: prefix, limit check, then the payload
/// filled into `payload` in chunks bounded by [`FRAME_CHUNK`]. `Ok(false)`
/// means no frame: the peer closed between frames, or `on_timeout` (see
/// [`fill`]) abandoned the wait.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    mut on_timeout: impl FnMut(bool, std::io::Error) -> std::io::Result<bool>,
) -> std::io::Result<bool> {
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix, false, &mut on_timeout)? {
        Fill::Full => {}
        Fill::Eof(0) | Fill::Abandoned => return Ok(false),
        Fill::Eof(_) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    payload.clear();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(FRAME_CHUNK.max(start)), 0);
        match fill(r, &mut payload[start..], true, &mut on_timeout)? {
            Fill::Full => {}
            Fill::Eof(_) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Fill::Abandoned => return Ok(false),
        }
    }
    Ok(true)
}

/// Reads one frame from a blocking peer. `Ok(None)` signals a clean end of
/// stream (the peer closed between frames).
///
/// # Errors
/// I/O errors, read timeouts included; `InvalidData` for an oversized
/// length prefix; `UnexpectedEof` for a stream cut mid-frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload, |_, e| Err(e))?.then_some(payload))
}

/// Both hex digits of every byte value, precomputed so [`hex_encode`] is one
/// table load and one two-byte store per input byte instead of two
/// nibble-shift/char-push round trips. Array tiles ship as hex on the wire,
/// so this runs over the full payload of every array response.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut t = [[0u8; 2]; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    t
};

/// Value of every ASCII hex digit, or `0xFF` for non-digits, so
/// [`hex_decode`]'s per-pair work is two loads and a range check.
const HEX_VALUES: [u8; 256] = {
    let mut t = [0xFFu8; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = match b as u8 {
            c @ b'0'..=b'9' => c - b'0',
            c @ b'a'..=b'f' => c - b'a' + 10,
            c @ b'A'..=b'F' => c - b'A' + 10,
            _ => 0xFF,
        };
        b += 1;
    }
    t
};

/// Hex-encodes bytes (lowercase, two digits per byte).
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[b as usize]);
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes a hex string produced by [`hex_encode`].
///
/// # Errors
/// A message naming the offending character or an odd length.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", s.len()));
    }
    let bytes = s.as_bytes();
    let mut out = vec![0u8; bytes.len() / 2];
    // Valid digit values fit in the low nibble, so a running OR keeps the
    // high bit clear exactly when every digit was valid — one branch per
    // call instead of one per pair; the offender is re-found only on error.
    let mut acc = 0u8;
    for (b, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
        acc |= hi | lo;
        *b = (hi << 4) | lo;
    }
    if acc & 0x80 != 0 {
        let bad = bytes
            .iter()
            .find(|&&c| HEX_VALUES[c as usize] == 0xFF)
            .expect("a bad digit set the accumulator");
        return Err(format!("bad hex digit {:?}", *bad as char));
    }
    Ok(out)
}

/// Builds a success response.
#[must_use]
pub fn ok_response(id: u64, result: Json) -> Json {
    Json::obj(vec![
        ("id", Json::UInt(id)),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
}

/// Builds a failure response.
#[must_use]
pub fn err_response(id: u64, code: ErrorCode, message: &str) -> Json {
    Json::obj(vec![
        ("id", Json::UInt(id)),
        ("ok", Json::Bool(false)),
        ("error", Json::Str(code.as_str().to_string())),
        ("message", Json::Str(message.to_string())),
    ])
}

/// Appends a field to an object payload (anything else passes through).
/// Every additive response field goes through here: clients ignore keys
/// they do not know.
#[must_use]
pub fn with_field(mut json: Json, key: &str, value: Json) -> Json {
    if let Json::Object(fields) = &mut json {
        fields.push((key.to_string(), value));
    }
    json
}

/// Stamps the catalog epoch a response was produced at into an object
/// payload. Additive: clients that predate snapshot reads ignore it.
#[must_use]
pub fn with_epoch(json: Json, epoch: u64) -> Json {
    with_field(json, "epoch", Json::UInt(epoch))
}

/// Tags a response with the server-assigned request id. The field sits
/// beside `id`/`ok`/`result`, so payload comparisons on `result` (e.g. the
/// golden wire-vs-inprocess corpus) are unaffected.
#[must_use]
pub fn with_request_id(json: Json, request_id: u64) -> Json {
    with_field(json, "request_id", Json::UInt(request_id))
}

/// Serializes a rasql result value (with its execution stats and the
/// snapshot epoch it observed) for the wire. Array cells travel hex-encoded
/// so the remote bytes are exactly the in-process bytes.
#[must_use]
pub fn value_to_json(value: &Value, stats: &QueryStats, epoch: u64) -> Json {
    let v = match value {
        Value::Array(a) => Json::obj(vec![
            ("kind", Json::Str("array".to_string())),
            ("domain", Json::Str(a.domain().to_string())),
            ("cell_size", Json::UInt(a.cell_size() as u64)),
            ("cells_hex", Json::Str(hex_encode(a.bytes()))),
        ]),
        Value::Number(n) => Json::obj(vec![
            ("kind", Json::Str("number".to_string())),
            // Bit-exact transport: JSON floats round-trip through decimal,
            // so ship the IEEE-754 bits alongside the readable value.
            ("bits", Json::UInt(n.to_bits())),
            ("value", Json::Float(*n)),
        ]),
        Value::Count(c) => Json::obj(vec![
            ("kind", Json::Str("count".to_string())),
            ("value", Json::UInt(*c)),
        ]),
        Value::Bool(b) => Json::obj(vec![
            ("kind", Json::Str("bool".to_string())),
            ("value", Json::Bool(*b)),
        ]),
    };
    Json::obj(vec![
        ("value", v),
        ("stats", stats.to_json()),
        ("epoch", Json::UInt(epoch)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(7);
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn a_bare_length_prefix_allocates_one_chunk_not_the_frame() {
        // The hostile peer: a MAX_FRAME prefix, then nothing.
        let mut r = std::io::Cursor::new((MAX_FRAME as u32).to_le_bytes());
        let mut payload = Vec::new();
        let e = read_frame_into(&mut r, &mut payload, |_, e| Err(e)).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(
            payload.capacity() <= FRAME_CHUNK,
            "{} bytes reserved for a frame that never arrived",
            payload.capacity()
        );
    }

    /// Yields its bytes in short reads, timing out before every one.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.ready = !self.ready;
            if self.ready {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            // Short reads of a size that lands inside chunks, not on their edges.
            let n = buf.len().min(self.bytes.len() - self.at).min(700_001);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_longer_than_a_chunk_survive_timeouts_and_short_reads() {
        let body: Vec<u8> = (0..2 * FRAME_CHUNK + 12_345).map(|i| i as u8).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &body).unwrap();
        let mut r = Trickle {
            bytes,
            at: 0,
            ready: false,
        };
        // The policy sees "no frame yet" exactly once: before the prefix.
        let mut idle_waits = 0;
        let mut payload = Vec::new();
        let got = read_frame_into(&mut r, &mut payload, |in_frame, _| {
            idle_waits += usize::from(!in_frame);
            Ok(true)
        });
        assert!(got.unwrap());
        assert_eq!(idle_waits, 1);
        assert!(payload == body);
        // Abandoning the wait ends the read without an error, and the
        // blocking reader turns the same timeout into one.
        r.at = 0;
        assert!(!read_frame_into(&mut r, &mut payload, |_, _| Ok(false)).unwrap());
        r.at = 0;
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        assert_eq!(hex_decode("00ff10").unwrap(), vec![0, 255, 16]);
    }

    #[test]
    fn hex_decode_names_the_first_bad_digit() {
        // The table-driven decoder defers validation to one accumulator
        // check; the error must still point at the offending character.
        assert_eq!(hex_decode("00g0").unwrap_err(), "bad hex digit 'g'");
        assert_eq!(hex_decode("0G").unwrap_err(), "bad hex digit 'G'");
        assert!(hex_decode("ABCDEF").is_ok(), "uppercase digits decode");
        assert_eq!(hex_decode("aAbB").unwrap(), vec![0xAA, 0xBB]);
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::Busy,
            ErrorCode::Deadline,
            ErrorCode::BadRequest,
            ErrorCode::Engine,
            ErrorCode::Shutdown,
            ErrorCode::ShardUnavailable,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }
}
