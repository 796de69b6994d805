//! The `blameitd` ingest wire protocol.
//!
//! Length-prefixed binary frames over localhost TCP, built from the
//! persistence codec's primitives ([`ByteWriter`]/[`ByteReader`],
//! CRC-32). The daemon therefore speaks one byte dialect in two
//! framings: codec sections on disk (`persist::log`), and on the socket
//! — where a stream needs its length first, and a cap on it — frames:
//!
//! ```text
//! frame   := len:u32-le  payload[len]
//! payload := kind:u8  body  crc:u32-le        (crc over kind‖body)
//! ```
//!
//! Client → server: `HELLO` (version handshake), `BATCH` (one
//! bucket's RTT records in columnar form), `TERM` (graceful shutdown:
//! drain, snapshot, exit). Server → client: `ACK` (admitted, possibly
//! with groups shed), `SLOW_DOWN` (queue at cap — backpressure with a
//! retry-after hint), `BYE` (TERM acknowledged, snapshot durable),
//! `ERR` (protocol violation).
//!
//! Every body but one is a [`Codec`] value, written and read through
//! its impl: `HELLO` a `u16`, `ACK` and `SLOW_DOWN` tuples of `u64`s,
//! and a `BATCH` body the [`RecordBatch`] columns verbatim — the same
//! bytes the ingest WAL stores as a section payload. `ERR`'s
//! `len:u32 · bytes` string is the one layout outside the trait (a
//! codec `String` counts in a `u64`); it moves onto it with the next
//! `WIRE_VERSION` bump. The encode/decode pair is pure (no sockets), so
//! the codec is testable and fuzzable without IO;
//! [`read_frame`]/[`write_frame`] only add the framing.

use crate::core::OfferReply;
use blameit::persist::codec::{crc32, ByteReader, ByteWriter, Codec};
use blameit::RecordBatch;
use std::io::{self, Read, Write};

/// Wire protocol version, negotiated by `HELLO`. Bump on any frame
/// layout change; the server refuses other versions.
pub const WIRE_VERSION: u16 = 1;

/// Frames larger than this are refused outright (a length prefix from
/// a confused or hostile peer must not allocate unbounded memory).
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

const KIND_HELLO: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_TERM: u8 = 3;
const KIND_ACK: u8 = 0x81;
const KIND_SLOW_DOWN: u8 = 0x82;
const KIND_BYE: u8 = 0x83;
const KIND_ERR: u8 = 0x84;

/// One protocol frame, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake; the server replies `Ack` (zeroes) or `Err`.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// One bucket's records, columnar.
    Batch {
        /// The offered batch (keys are packed subkeys, stream order).
        batch: RecordBatch,
    },
    /// Graceful shutdown request: drain complete tick windows,
    /// snapshot, reply `Bye`, exit.
    Term,
    /// The batch was accepted (possibly reduced by shedding).
    Ack {
        /// Records admitted to the queue.
        admitted: u64,
        /// Records shed by the overload controller.
        shed: u64,
        /// Queue depth (records) after this offer.
        queue_depth: u64,
    },
    /// The batch was refused at the queue cap; back off.
    SlowDown {
        /// Seconds the sender should wait before retrying.
        retry_after_secs: u64,
        /// Queue depth (records) that forced the refusal.
        queue_depth: u64,
    },
    /// TERM acknowledged; the shutdown snapshot is durable.
    Bye,
    /// Protocol violation; the connection is closing.
    Err {
        /// Human-readable reason.
        msg: String,
    },
}

/// The daemon's answer to an offer, as the frame that carries it.
impl From<OfferReply> for Frame {
    fn from(reply: OfferReply) -> Frame {
        match reply {
            OfferReply::Ack {
                admitted,
                shed,
                queue_depth,
            } => Frame::Ack {
                admitted,
                shed,
                queue_depth,
            },
            OfferReply::SlowDown {
                retry_after_secs,
                queue_depth,
            } => Frame::SlowDown {
                retry_after_secs,
                queue_depth,
            },
        }
    }
}

impl Frame {
    /// The inverse of `Frame::from(OfferReply)`: `Err` hands back any
    /// frame that is not an answer to an offer.
    pub fn into_offer_reply(self) -> Result<OfferReply, Frame> {
        match self {
            Frame::Ack {
                admitted,
                shed,
                queue_depth,
            } => Ok(OfferReply::Ack {
                admitted,
                shed,
                queue_depth,
            }),
            Frame::SlowDown {
                retry_after_secs,
                queue_depth,
            } => Ok(OfferReply::SlowDown {
                retry_after_secs,
                queue_depth,
            }),
            other => Err(other),
        }
    }
}

/// A wire decode failure (the IO side maps these to `Frame::Err`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn werr(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// The `BATCH` body: kind, then the columns.
fn put_batch(w: &mut ByteWriter, batch: &RecordBatch) {
    w.put_u8(KIND_BATCH);
    batch.put(w);
}

/// Appends the CRC over everything `w` holds.
fn sealed(w: ByteWriter) -> Vec<u8> {
    let mut bytes = w.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Encodes one frame payload (kind + body + CRC), without the length
/// prefix.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match frame {
        Frame::Hello { version } => {
            w.put_u8(KIND_HELLO);
            version.put(&mut w);
        }
        Frame::Batch { batch } => put_batch(&mut w, batch),
        Frame::Term => w.put_u8(KIND_TERM),
        &Frame::Ack {
            admitted,
            shed,
            queue_depth,
        } => {
            w.put_u8(KIND_ACK);
            (admitted, shed, queue_depth).put(&mut w);
        }
        &Frame::SlowDown {
            retry_after_secs,
            queue_depth,
        } => {
            w.put_u8(KIND_SLOW_DOWN);
            (retry_after_secs, queue_depth).put(&mut w);
        }
        Frame::Bye => w.put_u8(KIND_BYE),
        Frame::Err { msg } => {
            w.put_u8(KIND_ERR);
            let b = msg.as_bytes();
            // lint:allow(as-cast-truncation): error strings are short format! output; frames past the 64 MiB cap are rejected by write_frame
            w.put_u32(b.len() as u32);
            w.put_bytes(b);
        }
    }
    sealed(w)
}

/// One frame body read through its [`Codec`] impl, an error named after
/// the frame.
fn read_body<T: Codec>(r: &mut ByteReader<'_>, frame: &str) -> Result<T, WireError> {
    T::get(r).map_err(|e| werr(format!("{frame}: {e}")))
}

/// Decodes one frame payload (as produced by [`encode_frame`]).
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let Some((covered @ [kind, body @ ..], crc)) = payload.split_last_chunk::<4>() else {
        return Err(werr("frame shorter than kind + crc"));
    };
    if crc32(covered) != u32::from_le_bytes(*crc) {
        return Err(werr("frame crc mismatch"));
    }
    let mut r = ByteReader::new(body);
    let frame = match *kind {
        KIND_HELLO => Frame::Hello {
            version: read_body(&mut r, "hello")?,
        },
        KIND_BATCH => Frame::Batch {
            batch: read_body(&mut r, "batch")?,
        },
        KIND_TERM => Frame::Term,
        KIND_ACK => {
            let (admitted, shed, queue_depth) = read_body(&mut r, "ack")?;
            Frame::Ack {
                admitted,
                shed,
                queue_depth,
            }
        }
        KIND_SLOW_DOWN => {
            let (retry_after_secs, queue_depth) = read_body(&mut r, "slow-down")?;
            Frame::SlowDown {
                retry_after_secs,
                queue_depth,
            }
        }
        KIND_BYE => Frame::Bye,
        KIND_ERR => {
            let n = r.u32().map_err(|e| werr(format!("err len: {e}")))? as usize;
            let b = r.take(n).map_err(|e| werr(format!("err msg: {e}")))?;
            Frame::Err {
                msg: String::from_utf8_lossy(b).into_owned(),
            }
        }
        other => return Err(werr(format!("unknown frame kind {other:#04x}"))),
    };
    if r.remaining() != 0 {
        return Err(werr(format!(
            "{} trailing byte(s) after frame body",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    write_payload(w, &encode_frame(frame))
}

/// [`write_frame`] of a `BATCH` frame, from a borrowed batch: the
/// feeder sends the batch it holds without copying it into a [`Frame`].
pub(crate) fn write_batch<W: Write>(w: &mut W, batch: &RecordBatch) -> io::Result<()> {
    let mut payload = ByteWriter::new();
    put_batch(&mut payload, batch);
    write_payload(w, &sealed(payload))
}

/// Writes one encoded frame payload behind its length prefix.
fn write_payload<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a
/// frame boundary (the peer hung up between frames).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    FrameReader::default().next_frame(r)
}

/// A resumable [`read_frame`] for a source with a read timeout: the
/// bytes of a frame that has started arriving are kept across
/// `WouldBlock`/`TimedOut`, so the next [`FrameReader::next_frame`] continues
/// the same frame instead of mistaking its middle for a length prefix.
#[derive(Default)]
pub struct FrameReader {
    /// Receive buffer, sized to the current frame (length prefix
    /// included) and reused across frames.
    buf: Vec<u8>,
    /// Bytes of the current frame received so far.
    filled: usize,
}

impl FrameReader {
    /// True once any byte of the next frame has been consumed.
    pub fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    /// Reads until one whole frame is in. A read error leaves what has
    /// arrived in place; call again to resume.
    pub fn next_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Frame>> {
        loop {
            let mut want = 4;
            if let Some(&prefix) = self.buf.first_chunk().filter(|_| self.filled >= 4) {
                let len = u32::from_le_bytes(prefix);
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
                    ));
                }
                want += len as usize;
                if self.filled == want {
                    self.filled = 0;
                    // `buf` holds `want` bytes: the empty fallback is never taken.
                    return decode_frame(self.buf.get(4..want).unwrap_or_default())
                        .map(Some)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0));
                }
            }
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            // Never empty: `filled < want <= buf.len()` here.
            match r.read(self.buf.get_mut(self.filled..want).unwrap_or_default()) {
                Ok(0) if self.filled == 0 => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blameit_simnet::TimeBucket;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::Batch {
                batch: RecordBatch {
                    bucket: TimeBucket(42),
                    keys: vec![3, 3, 9, 700],
                    rtt: vec![10.0, 11.5, 80.25, 0.5],
                },
            },
            Frame::Term,
            Frame::Ack {
                admitted: 7,
                shed: 2,
                queue_depth: 990,
            },
            Frame::SlowDown {
                retry_after_secs: 30,
                queue_depth: 50_000,
            },
            Frame::Bye,
            Frame::Err {
                msg: "bad hello".to_string(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in all_frames() {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn a_borrowed_batch_writes_the_bytes_of_its_frame() {
        let Frame::Batch { batch } = &all_frames()[1] else {
            unreachable!("frame 1 is the batch")
        };
        let (mut borrowed, mut framed) = (Vec::new(), Vec::new());
        write_batch(&mut borrowed, batch).unwrap();
        write_frame(
            &mut framed,
            &Frame::Batch {
                batch: batch.clone(),
            },
        )
        .unwrap();
        assert_eq!(borrowed, framed);
    }

    #[test]
    fn offer_replies_map_onto_their_frames_and_back() {
        for f in all_frames() {
            match f.clone().into_offer_reply() {
                Ok(reply) => assert_eq!(Frame::from(reply), f),
                Err(other) => {
                    assert_eq!(other, f);
                    assert!(!matches!(f, Frame::Ack { .. } | Frame::SlowDown { .. }));
                }
            }
        }
    }

    #[test]
    fn framing_round_trips_through_io() {
        let mut buf = Vec::new();
        for f in all_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut cursor = &buf[..];
        for f in all_frames() {
            assert_eq!(read_frame(&mut cursor).unwrap(), Some(f));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// One byte per read with a `WouldBlock` before each — a socket
    /// with a read timeout whose peer pauses everywhere it can.
    struct Trickle<'a>(&'a [u8], bool);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = self.0.len().min(1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_resumes_a_frame_across_timeouts() {
        let mut bytes = Vec::new();
        for f in all_frames() {
            write_frame(&mut bytes, &f).unwrap();
        }
        let (mut src, mut reader) = (Trickle(&bytes, false), FrameReader::default());
        let mut got = Vec::new();
        loop {
            match reader.next_frame(&mut src) {
                Ok(Some(f)) => got.push(f),
                Ok(None) => break,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            // Mid-frame exactly when part of a frame has been consumed.
            let sent = bytes.len() - src.0.len();
            let whole: usize = got.iter().map(|f| 4 + encode_frame(f).len()).sum();
            assert_eq!(reader.mid_frame(), sent > whole, "at byte {sent}");
        }
        assert_eq!(got, all_frames());
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = encode_frame(&all_frames()[1]);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                decode_frame(&corrupt).is_err(),
                "bit flip at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = encode_frame(&all_frames()[1]);
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err());
    }
}
