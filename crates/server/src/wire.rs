//! The wire protocol: length-prefixed frames of JSON, with cell bytes
//! optionally carried raw beside it.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [u32 little-endian payload length][payload]
//! ```
//!
//! A payload that starts with `{` is a **JSON frame**: one compact JSON
//! object, UTF-8. A payload that starts with [`PARTS_TAG`] is a **parts
//! frame**:
//!
//! ```text
//! [PARTS_TAG][u32 LE header length][header: compact JSON][part 0][part 1]…
//! ```
//!
//! The header is the object a JSON frame would carry plus a `"parts":
//! [len, …]` list whose lengths sum to exactly the rest of the frame.
//! [`decode_message`] hands back the object without that list, so either
//! kind of frame decodes to the same document. A part is named by index
//! from the document (an array value's `"cells_part": 0`), and a frame may
//! carry several.
//!
//! Requests are objects `{"id": n, "op": "...", ...}` with an optional
//! `"deadline_ms"` budget. Responses echo the id:
//! `{"id": n, "ok": true, "result": ...}` on success,
//! `{"id": n, "ok": false, "error": "<code>", "message": "..."}` on failure,
//! where `<code>` is one of the [`ErrorCode`] names.
//!
//! Cells travel one of two ways, both byte-identical to the in-process
//! result. By default — the debug surface, and what every raw-JSON peer
//! gets — an array value carries them hex-encoded in `cells_hex`. A `query`
//! that sets `"binary": true` is answered with a parts frame whose array
//! value names its part instead, and an `insert` may send its cells as a
//! part the same way; [`Client`](crate::Client) always does both. Nothing
//! is negotiated: the request's own shape picks the encoding.

use std::io::{IoSlice, Read, Write};
use std::ops::Range;

use tilestore_engine::{Array, QueryStats};
use tilestore_rasql::Value;
use tilestore_testkit::{Json, ToJson};

/// Upper bound on a frame payload (64 MiB): one query result over the wire.
/// Larger frames are rejected instead of letting a corrupt length prefix
/// trigger an absurd allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// First byte of a parts frame. A JSON frame starts with `{`, so one byte
/// tells the two apart. ASCII, so a header can be built in a `String`.
pub const PARTS_TAG: u8 = 0x01;

/// Bytes of a parts frame before its header: the tag and the header length.
const PARTS_LEAD: usize = 5;

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
    /// The response would exceed [`MAX_FRAME`]; the message names its size
    /// and the limit. A hex (JSON) answer is twice the cells, so the same
    /// statement may fit as binary parts.
    ResultTooLarge,
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
            ErrorCode::ResultTooLarge => "result_too_large",
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
            "result_too_large" => ErrorCode::ResultTooLarge,
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
    write_payload(w, &[payload])
}

/// Writes the length prefix and then `pieces`, the payload, as one vectored
/// write: a frame the socket takes whole costs one system call, prefix
/// included.
fn write_payload(w: &mut impl Write, pieces: &[&[u8]]) -> std::io::Result<()> {
    let len: usize = pieces.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let prefix = u32::try_from(len)
        .expect("MAX_FRAME fits in u32")
        .to_le_bytes();
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(&prefix[..])
        .chain(pieces.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// A message serialized for the wire and not yet written: a JSON frame, or
/// a parts frame's tag, header length and header followed by the parts it
/// borrows.
pub struct Outgoing<'a> {
    head: Vec<u8>,
    parts: &'a [&'a [u8]],
}

impl<'a> Outgoing<'a> {
    /// `doc` alone as a JSON frame — exactly [`write_frame`] of its compact
    /// form — or, with parts, as the header of a parts frame whose
    /// `"parts"` lists their lengths. The document is serialized once,
    /// straight into the frame's buffer; the parts are not copied.
    #[must_use]
    pub fn new(doc: Json, parts: &'a [&'a [u8]]) -> Self {
        if parts.is_empty() {
            let head = doc.to_string_compact().into_bytes();
            return Outgoing { head, parts };
        }
        let lens = parts.iter().map(|p| Json::UInt(p.len() as u64)).collect();
        let mut head = String::new();
        head.push(char::from(PARTS_TAG));
        // The header length, patched in once the header is written.
        head.push_str("\0\0\0\0");
        with_field(doc, "parts", Json::Array(lens)).write_compact(&mut head);
        let mut head = head.into_bytes();
        // Saturating: a header this long fails the frame limit anyway.
        let header_len = u32::try_from(head.len() - PARTS_LEAD).unwrap_or(u32::MAX);
        head[1..PARTS_LEAD].copy_from_slice(&header_len.to_le_bytes());
        Outgoing { head, parts }
    }

    /// The payload's size: what the length prefix will announce.
    #[must_use]
    pub(crate) fn payload_len(&self) -> usize {
        self.head.len() + self.parts.iter().map(|p| p.len()).sum::<usize>()
    }

    /// Writes the frame — prefix, head and parts — in one vectored write
    /// (more only when the stream accepts a large frame in pieces).
    ///
    /// # Errors
    /// I/O errors; `InvalidInput` when the payload exceeds [`MAX_FRAME`].
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let pieces: Vec<&[u8]> = std::iter::once(&self.head[..])
            .chain(self.parts.iter().copied())
            .collect();
        write_payload(w, &pieces)
    }
}

/// The binary parts of a received frame. They stay where they arrived, in
/// the frame's buffer, until one is taken.
#[derive(Debug, Default)]
pub struct Parts {
    payload: Vec<u8>,
    ranges: Vec<Range<usize>>,
}

impl Parts {
    /// Moves out the part an array value names as `"cells_part"`, once
    /// `check` has accepted its length. The frame's buffer becomes the
    /// part's: nothing is allocated, the bytes ahead of the part shift
    /// down, and every other part is gone afterwards.
    ///
    /// # Errors
    /// No `cells_part` index, an index past the frame's parts, or `check`'s
    /// message.
    pub fn take_cells(
        &mut self,
        value: &Json,
        check: impl FnOnce(usize) -> Result<(), String>,
    ) -> Result<Vec<u8>, String> {
        let index = value
            .get("cells_part")
            .and_then(Json::as_u64)
            .ok_or("array value names no `cells_part`")?;
        let range = usize::try_from(index)
            .ok()
            .and_then(|i| self.ranges.get(i))
            .cloned()
            .ok_or_else(|| {
                format!(
                    "cells_part {index} is out of range: the frame has {} part(s)",
                    self.ranges.len()
                )
            })?;
        check(range.len())?;
        self.ranges.clear();
        let mut cells = std::mem::take(&mut self.payload);
        cells.truncate(range.end);
        cells.drain(..range.start);
        Ok(cells)
    }
}

/// Removes `key` from an object and returns its value (no clone).
pub(crate) fn take_field(doc: &mut Json, key: &str) -> Option<Json> {
    let Json::Object(fields) = doc else {
        return None;
    };
    let at = fields.iter().position(|(k, _)| k == key)?;
    Some(fields.remove(at).1)
}

/// Splits a received payload into its JSON document and its parts: none
/// for a JSON frame; for a parts frame the header, without its `"parts"`
/// list, and the byte ranges that list describes. Nothing is allocated in
/// proportion to any length the frame claims — only to the bytes it holds.
///
/// # Errors
/// Invalid UTF-8 or JSON; a header length past the end of the frame; a
/// header without a `parts` list of lengths; part lengths that do not sum
/// to exactly the rest of the frame.
pub fn decode_message(payload: Vec<u8>) -> Result<(Json, Parts), String> {
    fn parse(bytes: &[u8]) -> Result<Json, String> {
        std::str::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|s| Json::parse(s).map_err(|e| e.to_string()))
    }
    if payload.first() != Some(&PARTS_TAG) {
        return Ok((parse(&payload)?, Parts::default()));
    }
    let header_len = payload
        .get(1..PARTS_LEAD)
        .map(|b| u32::from_le_bytes(b.try_into().expect("four bytes")) as usize)
        .ok_or("parts frame ends inside its header length")?;
    let header_end = PARTS_LEAD
        .checked_add(header_len)
        .filter(|&end| end <= payload.len())
        .ok_or_else(|| {
            format!(
                "header of {header_len} bytes runs past the end of a {}-byte frame",
                payload.len()
            )
        })?;
    let mut doc = parse(&payload[PARTS_LEAD..header_end])?;
    let Some(Json::Array(lens)) = take_field(&mut doc, "parts") else {
        return Err("parts frame header lacks a `parts` list".to_string());
    };
    let body = payload.len() - header_end;
    let mut ranges = Vec::with_capacity(lens.len());
    let mut at = header_end;
    for len in &lens {
        let end = len
            .as_u64()
            .and_then(|l| usize::try_from(l).ok())
            .and_then(|l| at.checked_add(l))
            .filter(|&end| end <= payload.len())
            .ok_or_else(|| format!("part lengths overrun the {body} bytes after the header"))?;
        ranges.push(at..end);
        at = end;
    }
    if at != payload.len() {
        return Err(format!(
            "part lengths sum to {} bytes, but {body} follow the header",
            at - header_end
        ));
    }
    Ok((doc, Parts { payload, ranges }))
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
    result_json(value, stats, epoch, |a| {
        ("cells_hex", Json::Str(hex_encode(a.bytes())))
    })
}

/// [`value_to_json`] for a parts frame: an array value names part 0
/// (`"cells_part": 0`) instead of carrying its cells, and the cells come
/// back beside the result, moved out of the array, to be that part.
#[must_use]
pub(crate) fn value_to_parts(
    value: Value,
    stats: &QueryStats,
    epoch: u64,
) -> (Json, Option<Vec<u8>>) {
    let result = result_json(&value, stats, epoch, |_| ("cells_part", Json::UInt(0)));
    let cells = match value {
        Value::Array(a) => Some(a.into_bytes()),
        _ => None,
    };
    (result, cells)
}

/// The `result` object of a query; `cells` gives an array value's last
/// field, the one that carries or names its cells.
fn result_json(
    value: &Value,
    stats: &QueryStats,
    epoch: u64,
    cells: impl FnOnce(&Array) -> (&'static str, Json),
) -> Json {
    let v = match value {
        Value::Array(a) => Json::obj(vec![
            ("kind", Json::Str("array".to_string())),
            ("domain", Json::Str(a.domain().to_string())),
            ("cell_size", Json::UInt(a.cell_size() as u64)),
            cells(a),
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
            ErrorCode::ResultTooLarge,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    /// The payload `Outgoing` writes for `doc` and `parts`.
    fn encode(doc: Json, parts: &[&[u8]]) -> Vec<u8> {
        let mut framed = Vec::new();
        Outgoing::new(doc, parts).write_to(&mut framed).unwrap();
        read_frame(&mut std::io::Cursor::new(framed))
            .unwrap()
            .unwrap()
    }

    /// A response whose array value is its second part, after a first one
    /// nothing names: the shape band streaming will send.
    fn two_part_frame() -> Vec<u8> {
        let value = Json::obj(vec![
            ("kind", Json::Str("array".to_string())),
            ("domain", Json::Str("[0:1,0:2]".to_string())),
            ("cell_size", Json::UInt(2)),
            ("cells_part", Json::UInt(1)),
        ]);
        let doc = ok_response(7, Json::obj(vec![("value", value)]));
        let cells: Vec<u8> = (0..12).collect();
        encode(doc, &[b"band", &cells])
    }

    /// A parts payload with the given header text and body bytes.
    fn parts_payload(header: &str, body: &[u8]) -> Vec<u8> {
        let mut p = vec![PARTS_TAG];
        p.extend_from_slice(&(header.len() as u32).to_le_bytes());
        p.extend_from_slice(header.as_bytes());
        p.extend_from_slice(body);
        p
    }

    #[test]
    fn a_frame_without_parts_is_todays_json_frame() {
        let doc = ok_response(3, Json::Str("pong".to_string()));
        let mut json = Vec::new();
        write_frame(&mut json, doc.to_string_compact().as_bytes()).unwrap();
        let mut out = Vec::new();
        Outgoing::new(doc.clone(), &[]).write_to(&mut out).unwrap();
        assert_eq!(out, json);
        let (got, parts) = decode_message(encode(doc.clone(), &[])).unwrap();
        assert_eq!((got, parts.ranges.len()), (doc, 0));
    }

    #[test]
    fn parts_round_trip_and_the_header_reads_like_a_json_frame() {
        let payload = two_part_frame();
        assert_eq!(payload[0], PARTS_TAG);
        let (doc, mut parts) = decode_message(payload).unwrap();
        assert!(doc.get("parts").is_none(), "the parts list is framing");
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(parts.ranges.len(), 2);
        let value = doc.get("result").and_then(|r| r.get("value")).unwrap();
        let cells = parts.take_cells(value, |len| {
            assert_eq!(len, 12);
            Ok(())
        });
        assert_eq!(cells.unwrap(), (0..12).collect::<Vec<u8>>());
        assert_eq!(parts.ranges.len(), 0, "taking a part releases the frame");
    }

    #[test]
    fn cells_move_out_of_the_frame_buffer_without_a_copy() {
        let payload = two_part_frame();
        let buffer = payload.as_ptr();
        let (doc, mut parts) = decode_message(payload).unwrap();
        let value = doc.get("result").and_then(|r| r.get("value")).unwrap();
        let cells = parts.take_cells(value, |_| Ok(())).unwrap();
        assert_eq!(cells.as_ptr(), buffer, "the part reuses the frame's buffer");
    }

    #[test]
    fn value_to_parts_names_part_zero_and_moves_the_cells() {
        let a = Array::from_cells::<u16>("[0:1,0:1]".parse().unwrap(), &[1, 2, 3, 4]).unwrap();
        let bytes = a.bytes().to_vec();
        let at = a.bytes().as_ptr();
        let stats = QueryStats::default();
        let hex = value_to_json(&Value::Array(a.clone()), &stats, 4);
        let (result, cells) = value_to_parts(Value::Array(a), &stats, 4);
        let cells = cells.unwrap();
        assert_eq!(cells, bytes);
        assert_eq!(cells.as_ptr(), at, "the array's own buffer, not a copy");
        let v = result.get("value").unwrap();
        assert_eq!(v.get("cells_part").and_then(Json::as_u64), Some(0));
        assert!(v.get("cells_hex").is_none());
        // Everything but the cells field is value_to_json's output.
        let strip = |j: &Json, key: &str| {
            let mut j = j.clone();
            let mut v = take_field(&mut j, "value").unwrap();
            take_field(&mut v, key).unwrap();
            (j, v)
        };
        assert_eq!(strip(&result, "cells_part"), strip(&hex, "cells_hex"));
        // Scalars have no part.
        let (n, cells) = value_to_parts(Value::Count(3), &stats, 4);
        assert_eq!(n, value_to_json(&Value::Count(3), &stats, 4));
        assert!(cells.is_none());
    }

    #[test]
    fn hostile_parts_frames_are_errors() {
        let body = [0u8; 8];
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("lead cut short", vec![PARTS_TAG, 0, 0]),
            ("header length past the end", {
                let mut p = parts_payload(r#"{"parts":[8]}"#, &body);
                p[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
                p
            }),
            ("header one byte too long", {
                let mut p = parts_payload(r#"{"parts":[]}"#, &[]);
                p[1] += 1;
                p
            }),
            (
                "parts sum short",
                parts_payload(r#"{"parts":[4,3]}"#, &body),
            ),
            ("parts sum long", parts_payload(r#"{"parts":[4,5]}"#, &body)),
            (
                "a part longer than memory",
                parts_payload(r#"{"parts":[18446744073709551615,8]}"#, &body),
            ),
            (
                "negative length",
                parts_payload(r#"{"parts":[-1,9]}"#, &body),
            ),
            ("no parts list", parts_payload(r#"{"id":1}"#, &body)),
            ("parts not a list", parts_payload(r#"{"parts":8}"#, &body)),
            ("header not JSON", parts_payload(r#"{"parts":[8]"#, &body)),
        ];
        for (what, payload) in cases {
            assert!(decode_message(payload).is_err(), "{what}");
        }
        let mut bad_utf8 = parts_payload("{}", &[]);
        bad_utf8[5] = 0xFF;
        assert!(decode_message(bad_utf8).is_err());
        // A frame may carry no parts at all, and zero-length parts.
        assert!(decode_message(parts_payload(r#"{"parts":[]}"#, &[])).is_ok());
        assert!(decode_message(parts_payload(r#"{"parts":[0,8,0]}"#, &body)).is_ok());
    }

    #[test]
    fn hostile_cells_part_indices_are_errors() {
        let (doc, mut parts) = decode_message(two_part_frame()).unwrap();
        let value = doc.get("result").and_then(|r| r.get("value")).unwrap();
        for index in [
            Json::UInt(2),
            Json::UInt(u64::MAX),
            Json::Int(-1),
            Json::Null,
        ] {
            let v = with_field(Json::obj(vec![]), "cells_part", index.clone());
            assert!(parts.take_cells(&v, |_| Ok(())).is_err(), "{index:?}");
        }
        // A length the caller rejects leaves the frame intact.
        let e = parts.take_cells(value, |len| Err(format!("{len} is wrong")));
        assert_eq!(e.unwrap_err(), "12 is wrong");
        assert_eq!(parts.ranges.len(), 2);
    }

    #[test]
    fn byte_mutations_of_a_two_part_frame_never_panic() {
        let valid = two_part_frame();
        let mut rng = tilestore_testkit::Rng::seed_from_u64(0x7061_7274);
        let (mut decoded, mut rejected) = (0u32, 0u32);
        for _ in 0..4000 {
            let mut payload = valid.clone();
            for _ in 0..rng.gen_range(1..=4u32) {
                let at = rng.gen_range(0..payload.len());
                payload[at] = rng.next_u64() as u8;
            }
            if rng.gen_range(0..8u32) == 0 {
                payload.truncate(rng.gen_range(0..payload.len()));
            }
            match decode_message(payload) {
                Ok((doc, mut parts)) => {
                    decoded += 1;
                    // Whatever survives must still honour the frame's own
                    // bounds when a part is taken.
                    let value = doc.get("result").and_then(|r| r.get("value"));
                    if let Some(v) = value {
                        let _ = parts.take_cells(v, |_| Ok(()));
                    }
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            decoded > 0 && rejected > 0,
            "{decoded} decoded, {rejected} rejected"
        );
    }
}
