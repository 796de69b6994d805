//! The feeder: replays a simulated world into the daemon.
//!
//! One batch source and one delivery step, over two sinks. The source
//! ([`world_batches`]) turns *world × range × [`SurgePlan`]* into one
//! non-empty [`RecordBatch`] per bucket, in bucket order. The delivery
//! step ([`deliver`]) offers one batch at most `max_attempts` times:
//! a `SLOW_DOWN` reply backs off and retries, the last one abandons the
//! batch, and either way the [`FeedSummary`] counts it. A [`Sink`] is
//! where an offer lands:
//!
//! * [`WireSink`] — the ingest socket (`write_frame`/`read_frame`); its
//!   back-off waits on the injected [`Clock`]. [`feed_world`], the
//!   `blameit feed` client, is handshake + [`feed`] + `TERM` around it.
//! * [`CoreSink`] — a [`DaemonCore`] in the same process: `offer`, then
//!   `pump` after every reply, refusals included, exactly as
//!   `Server::serve_ingest` does, collecting the [`TickOutput`]s. No
//!   sockets and no clock: the scenario runner's `[overload]` path and
//!   the overload/crash tests replay feeds through it.
//!
//! Every sender in the workspace outside the frozen `benchmark/` is
//! this code, so its accounting is what the smoke harness, the
//! overload tests and the scenario reports assert against.

use crate::clock::Clock;
use crate::core::{DaemonCore, DaemonError, OfferReply};
use crate::wire::{read_frame, write_batch, write_frame, Frame, WIRE_VERSION};
use blameit::persist::fs::{Fs, StdFs};
use blameit::{Backend, RecordBatch, TickOutput, WorldBackend};
use blameit_simnet::{SurgePlan, TimeRange, World};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Feeder knobs.
#[derive(Clone, Debug)]
pub struct FeedConfig {
    /// Ingest address (`host:port`).
    pub addr: String,
    /// Volume amplification; an empty plan feeds the world verbatim.
    pub surge: SurgePlan,
    /// Attempts per batch before giving up (first try + retries).
    pub max_attempts: u32,
    /// Cap on one backpressure wait, milliseconds (the server's
    /// retry-after hint is in seconds; tests cap it near zero).
    pub max_backoff_ms: u64,
    /// Send `TERM` (drain + snapshot + exit) after the last bucket.
    pub term: bool,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            addr: crate::server::DEFAULT_INGEST_ADDR.to_string(),
            surge: SurgePlan::default(),
            max_attempts: 5,
            max_backoff_ms: 2_000,
            term: true,
        }
    }
}

/// What one feed run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FeedSummary {
    /// Batches sent (excluding retries).
    pub batches: u64,
    /// Records offered (after surge amplification).
    pub records_offered: u64,
    /// Records the daemon admitted.
    pub records_admitted: u64,
    /// Records the daemon shed at admission.
    pub records_shed: u64,
    /// `SLOW_DOWN` replies received.
    pub slow_downs: u64,
    /// Batches abandoned after exhausting retries.
    pub batches_abandoned: u64,
    /// The daemon confirmed TERM with a durable snapshot.
    pub terminated: bool,
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The batch source: `backend`'s RTT stream over `range`, amplified
/// through `surge`, one batch per bucket in bucket order. Buckets with
/// no records yield nothing.
pub fn world_batches<'a>(
    backend: &'a WorldBackend<'a>,
    range: TimeRange,
    surge: SurgePlan,
) -> impl Iterator<Item = RecordBatch> + 'a {
    range.buckets().filter_map(move |bucket| {
        let records = backend
            .rtt_records_in(bucket)
            .expect("the world backend exposes raw records");
        let records = surge.amplify(bucket, &records);
        (!records.is_empty()).then(|| RecordBatch::from_records(bucket, &records))
    })
}

/// Where the feeder's offers land.
pub trait Sink {
    /// What a failed offer surfaces; [`deliver`] never retries it.
    type Error;

    /// Offers `batch` once and returns the daemon's reply.
    fn offer(&mut self, batch: &RecordBatch) -> Result<OfferReply, Self::Error>;

    /// Waits out a refusal before the retry. Only a sink with a clock
    /// has anything to wait on.
    fn back_off(&mut self, _retry_after_secs: u64) {}
}

/// The delivery step: offers `batch` to `sink` at most `max_attempts`
/// times, folding the outcome into `summary`. Returns whether the
/// batch was delivered (`false`: abandoned after the last refusal).
pub fn deliver<S: Sink>(
    sink: &mut S,
    batch: &RecordBatch,
    max_attempts: u32,
    summary: &mut FeedSummary,
) -> Result<bool, S::Error> {
    summary.batches += 1;
    summary.records_offered += batch.keys.len() as u64;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match sink.offer(batch)? {
            OfferReply::Ack { admitted, shed, .. } => {
                summary.records_admitted += admitted;
                summary.records_shed += shed;
                return Ok(true);
            }
            OfferReply::SlowDown {
                retry_after_secs, ..
            } => {
                summary.slow_downs += 1;
                if attempts >= max_attempts {
                    summary.batches_abandoned += 1;
                    return Ok(false);
                }
                sink.back_off(retry_after_secs);
            }
        }
    }
}

/// Delivers every batch of `batches` in order. On `Err` the iterator
/// stands at the first batch not yet offered, so a caller that kept it
/// can resume the feed there.
pub fn feed<S: Sink>(
    sink: &mut S,
    batches: impl Iterator<Item = RecordBatch>,
    max_attempts: u32,
) -> Result<FeedSummary, S::Error> {
    let mut summary = FeedSummary::default();
    for batch in batches {
        deliver(sink, &batch, max_attempts, &mut summary)?;
    }
    Ok(summary)
}

/// The wire sink: one `BATCH` frame out, one reply frame in. Generic in
/// the stream so a scripted peer can stand in for the socket.
pub struct WireSink<'c, T: Read + Write> {
    stream: T,
    clock: &'c dyn Clock,
    max_backoff_ms: u64,
}

impl<'c, T: Read + Write> WireSink<'c, T> {
    /// A sink over `stream` (handshake already done) that waits at
    /// most `max_backoff_ms` per refusal.
    pub fn new(stream: T, clock: &'c dyn Clock, max_backoff_ms: u64) -> Self {
        WireSink {
            stream,
            clock,
            max_backoff_ms,
        }
    }
}

impl<T: Read + Write> Sink for WireSink<'_, T> {
    type Error = io::Error;

    fn offer(&mut self, batch: &RecordBatch) -> io::Result<OfferReply> {
        write_batch(&mut self.stream, batch)?;
        match read_frame(&mut self.stream)?.map(Frame::into_offer_reply) {
            Some(Ok(reply)) => Ok(reply),
            Some(Err(Frame::Err { msg })) => Err(proto_err(format!("daemon refused batch: {msg}"))),
            Some(Err(other)) => Err(proto_err(format!("bad batch reply: {:?}", Some(other)))),
            None => Err(proto_err("bad batch reply: None")),
        }
    }

    fn back_off(&mut self, retry_after_secs: u64) {
        // The hint comes straight off the wire, uncapped.
        let hint_ms = retry_after_secs.saturating_mul(1_000);
        self.clock.sleep_ms(hint_ms.min(self.max_backoff_ms));
    }
}

/// The in-process sink: the daemon's decision core, driven the way the
/// socket shell drives it — `offer`, then `pump` after every reply —
/// with the ticks that fired collected in [`CoreSink::outs`].
pub struct CoreSink<'c, B: Backend, F: Fs = StdFs> {
    /// The core offers go to (readable between deliveries).
    pub core: &'c mut DaemonCore<B, F>,
    /// Every tick a pump has run so far, in order.
    pub outs: Vec<TickOutput>,
}

impl<'c, B: Backend, F: Fs> CoreSink<'c, B, F> {
    /// A sink into `core` with no ticks collected yet.
    pub fn new(core: &'c mut DaemonCore<B, F>) -> Self {
        CoreSink {
            core,
            outs: Vec::new(),
        }
    }
}

impl<B: Backend, F: Fs> Sink for CoreSink<'_, B, F> {
    type Error = DaemonError;

    fn offer(&mut self, batch: &RecordBatch) -> Result<OfferReply, DaemonError> {
        let reply = self.core.offer(batch.clone())?;
        self.outs.extend(self.core.pump()?);
        Ok(reply)
    }
}

/// Replays `world`'s RTT stream for `range` into the daemon at
/// `cfg.addr`, bucket by bucket in order.
pub fn feed_world(
    world: &World,
    range: TimeRange,
    cfg: &FeedConfig,
    clock: &dyn Clock,
) -> io::Result<FeedSummary> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true).ok();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )?;
    match read_frame(&mut stream)? {
        Some(Frame::Ack { .. }) => {}
        Some(Frame::Err { msg }) => return Err(proto_err(format!("hello refused: {msg}"))),
        other => return Err(proto_err(format!("bad hello reply: {other:?}"))),
    }

    let backend = WorldBackend::new(world);
    let mut sink = WireSink::new(&mut stream, clock, cfg.max_backoff_ms);
    let batches = world_batches(&backend, range, cfg.surge.clone());
    let mut summary = feed(&mut sink, batches, cfg.max_attempts)?;

    if cfg.term {
        write_frame(&mut stream, &Frame::Term)?;
        match read_frame(&mut stream)? {
            Some(Frame::Bye) => summary.terminated = true,
            other => return Err(proto_err(format!("bad term reply: {other:?}"))),
        }
    }
    Ok(summary)
}

/// Minimal HTTP/1.0 GET against the daemon's scrape endpoint; returns
/// the response body. Dependency-free on purpose — the smoke harness
/// and CLI use it to pull `/metrics` without an HTTP stack.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.0\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| proto_err("no header/body separator in HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(proto_err(format!("HTTP error: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NoopClock;
    use blameit_simnet::TimeBucket;

    /// A scripted peer: hands out pre-written reply frames, keeps what
    /// the feeder sent.
    struct Script {
        replies: io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
    }

    impl Script {
        fn new(replies: &[Frame]) -> Script {
            let mut bytes = Vec::new();
            for f in replies {
                write_frame(&mut bytes, f).unwrap();
            }
            Script {
                replies: io::Cursor::new(bytes),
                sent: Vec::new(),
            }
        }

        /// `BATCH` frames the feeder wrote.
        fn offers(&self) -> usize {
            let mut sent = &self.sent[..];
            std::iter::from_fn(|| read_frame(&mut sent).unwrap())
                .inspect(|f| assert!(matches!(f, Frame::Batch { .. }), "{f:?}"))
                .count()
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.replies.read(out)
        }
    }

    impl Write for Script {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.sent.write(bytes)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const MAX_ATTEMPTS: u32 = 4;
    const MAX_BACKOFF_MS: u64 = 250;

    fn slow_down(retry_after_secs: u64) -> Frame {
        Frame::SlowDown {
            retry_after_secs,
            queue_depth: 9,
        }
    }

    /// Delivers one three-record batch against `replies`; returns the
    /// outcome, the summary, the offers made and the virtual wait.
    fn deliver_against(replies: &[Frame]) -> (io::Result<bool>, FeedSummary, usize, u64) {
        let batch = RecordBatch {
            bucket: TimeBucket(7),
            keys: vec![1, 1, 2],
            rtt: vec![10.0, 20.0, 30.0],
        };
        let clock = NoopClock::default();
        let mut script = Script::new(replies);
        let mut summary = FeedSummary::default();
        let outcome = {
            let mut sink = WireSink::new(&mut script, &clock, MAX_BACKOFF_MS);
            deliver(&mut sink, &batch, MAX_ATTEMPTS, &mut summary)
        };
        (outcome, summary, script.offers(), clock.slept_ms())
    }

    #[test]
    fn refusals_short_of_the_limit_end_in_delivery() {
        let mut replies = vec![slow_down(0); MAX_ATTEMPTS as usize - 1];
        replies.push(Frame::Ack {
            admitted: 2,
            shed: 1,
            queue_depth: 2,
        });
        let (outcome, summary, offers, _) = deliver_against(&replies);
        assert!(outcome.unwrap(), "delivered");
        assert_eq!(offers, MAX_ATTEMPTS as usize);
        assert_eq!(
            summary,
            FeedSummary {
                batches: 1,
                records_offered: 3,
                records_admitted: 2,
                records_shed: 1,
                slow_downs: u64::from(MAX_ATTEMPTS) - 1,
                ..FeedSummary::default()
            }
        );
    }

    #[test]
    fn refusals_up_to_the_limit_abandon_the_batch() {
        // One reply more than the feeder may ask for: it must not.
        let replies = vec![slow_down(1); MAX_ATTEMPTS as usize + 1];
        let (outcome, summary, offers, slept_ms) = deliver_against(&replies);
        assert!(!outcome.unwrap(), "abandoned");
        assert_eq!(offers, MAX_ATTEMPTS as usize, "exactly max_attempts offers");
        assert_eq!(
            summary,
            FeedSummary {
                batches: 1,
                records_offered: 3,
                slow_downs: u64::from(MAX_ATTEMPTS),
                batches_abandoned: 1,
                ..FeedSummary::default()
            }
        );
        // A wait between attempts, none after the last.
        assert_eq!(slept_ms, u64::from(MAX_ATTEMPTS - 1) * MAX_BACKOFF_MS);
    }

    #[test]
    fn a_huge_retry_hint_waits_the_cap_without_overflow() {
        let replies = [
            slow_down(u64::MAX),
            Frame::Ack {
                admitted: 3,
                shed: 0,
                queue_depth: 3,
            },
        ];
        let (outcome, summary, offers, slept_ms) = deliver_against(&replies);
        assert!(outcome.unwrap());
        assert_eq!((offers, summary.slow_downs), (2, 1));
        assert_eq!(slept_ms, MAX_BACKOFF_MS);
    }

    #[test]
    fn an_err_reply_surfaces_without_a_retry() {
        let replies = [
            Frame::Err {
                msg: "batch before hello".to_string(),
            },
            slow_down(0),
        ];
        let (outcome, summary, offers, slept_ms) = deliver_against(&replies);
        let err = outcome.unwrap_err().to_string();
        assert_eq!(err, "daemon refused batch: batch before hello");
        assert_eq!((offers, summary.slow_downs, slept_ms), (1, 0, 0));
        // A reply that answers no offer, and a peer that hung up.
        for (replies, want) in [(vec![Frame::Bye], "Some(Bye)"), (vec![], "None")] {
            let (outcome, _, offers, _) = deliver_against(&replies);
            let err = outcome.unwrap_err().to_string();
            assert_eq!(err, format!("bad batch reply: {want}"));
            assert_eq!(offers, 1);
        }
    }
}
