//! The `wire` workload: the same batches through `Server::run` on an
//! ephemeral localhost port, with the harness's own feeder.
//!
//! The server runs on one thread of this process (root `cargo build`
//! does not build the `blameitd` binary, so nothing may spawn it) and
//! the feeder on the calling thread. The feeder is the black-box view:
//! it can time a reply, not a tick, so on this workload
//!
//! * `ack` is send → `ACK`/`SLOW_DOWN`;
//! * `verdict` is send of a window-closing batch → the *next* reply
//!   (the tick runs after the ACK is written and blocks the next read,
//!   so the next reply is the first moment a feeder can know the
//!   verdict exists);
//! * `tick` is that window-closing ACK → the next reply.

use crate::daemon::{reopen_clean, Exact, MAX_ATTEMPTS};
use crate::inputs::{DaemonInputs, Deadline, StateDir};
use crate::layers::LayerAcc;
use crate::spans::Tracer;
use blameit::persist::journal;
use blameit::{RecordBatch, StartMode};
use blameit_daemon::wire::{decode_frame, encode_frame, read_frame, write_frame};
use blameit_daemon::{Frame, ServeSummary, Server, ServerConfig, WallClock, WIRE_VERSION};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Socket timeouts: a reply that takes this long is a hang, reported
/// as an error instead of waited for (the slowest legitimate reply, a
/// `BYE` after a snapshot, takes a fraction of a second).
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a feed or a rep produced nothing.
///
/// `connection_broke` marks the one failure that says nothing about
/// what the daemon decides: `Server::serve_ingest` reads with a 20 ms
/// timeout and `read_frame` cannot resume a frame it has half read, so
/// a feeder that the host keeps off the CPU for 20 ms in the middle of
/// writing a frame (a ~1 MB write, well under a millisecond of work)
/// leaves the server out of step with the stream — it answers `ERR`
/// (crc mismatch, bad length) or waits for bytes that never come. The
/// rep is then void; [`crate::run`] runs it again, a bounded number of
/// times. Every other error fails the run.
#[derive(Debug)]
pub struct RepError {
    /// What went wrong.
    pub msg: String,
    /// The connection broke under the feeder after the handshake.
    pub connection_broke: bool,
}

impl From<String> for RepError {
    fn from(msg: String) -> RepError {
        RepError {
            msg,
            connection_broke: false,
        }
    }
}

fn broke(msg: String) -> RepError {
    RepError {
        msg,
        connection_broke: true,
    }
}

/// What the feeder saw.
#[derive(Debug, Default)]
pub struct WireFeed {
    /// Per batch: send → reply, ms.
    pub acks_ms: Vec<f64>,
    /// Per window-closing batch: send → the next frame's reply, ms.
    pub verdicts_ms: Vec<f64>,
    /// Per window-closing batch: its ACK → the next frame's reply, ms.
    pub ticks_ms: Vec<f64>,
    /// Per batch sent right after a window-closing one: send → reply.
    pub ack_after_tick_ms: Vec<f64>,
    /// First batch sent → `BYE` received, seconds.
    pub wall_s: f64,
    /// Records offered / admitted / shed, summed over replies.
    pub offered: u64,
    /// Records the daemon reported admitted.
    pub admitted: u64,
    /// Records the daemon reported shed.
    pub shed: u64,
    /// Batches abandoned after [`MAX_ATTEMPTS`] `SLOW_DOWN`s.
    pub abandoned: u64,
}

/// Connects with timeouts set and completes the `HELLO` handshake.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("feeder connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("feeder socket options: {e}"))?;
    let hello = Frame::Hello {
        version: WIRE_VERSION,
    };
    // A handshake that fails is a daemon that is not there, not a
    // stalled write: never retried.
    match exchange(&mut stream, &hello).map_err(|e| format!("hello: {}", e.msg))? {
        Frame::Ack { .. } => Ok(stream),
        other => Err(format!("bad hello reply: {other:?}")),
    }
}

fn exchange<S: Read + Write>(stream: &mut S, frame: &Frame) -> Result<Frame, RepError> {
    write_frame(stream, frame).map_err(|e| broke(format!("feeder write: {e}")))?;
    match read_frame(stream) {
        Ok(Some(Frame::Err { msg })) => Err(broke(format!("daemon refused a frame: {msg}"))),
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err(broke("daemon closed the connection".to_string())),
        Err(e) => Err(broke(format!("feeder read: {e}"))),
    }
}

/// Sends `frames` (all `Frame::Batch`) one at a time, each after the
/// previous reply, then `TERM`. `tick_buckets` tells the feeder which
/// batches close a tick window (the first batch at or past a window's
/// end — every `tick_buckets`-th from the second window on).
pub fn feed(
    addr: SocketAddr,
    frames: &[Frame],
    tick_buckets: usize,
    tracer: &mut Tracer,
    mut layers: Option<&mut LayerAcc>,
    deadline: &Deadline,
) -> Result<WireFeed, RepError> {
    let mut stream = connect(addr)?;
    let mut out = WireFeed::default();
    // (send instant, ACK instant) of a window-closing batch whose tick
    // the next reply will prove finished.
    let mut closing: Option<(Instant, Instant)> = None;
    let t_feed = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        deadline.check()?;
        let Frame::Batch { batch } = frame else {
            return Err("feeder frames must all be BATCH".to_string().into());
        };
        let id = batch.bucket.0;
        if let Some(acc) = layers.as_deref_mut() {
            shadow_codec(tracer, acc, frame, batch);
        }
        out.offered += batch.keys.len() as u64;
        let mut attempts = 0;
        loop {
            attempts += 1;
            let t_send = Instant::now();
            let (reply, secs) = tracer.time("wire.send_to_reply", None, id, || {
                exchange(&mut stream, frame)
            });
            let t_reply = Instant::now();
            if let Some((sent, acked)) = closing.take() {
                out.verdicts_ms.push((t_reply - sent).as_secs_f64() * 1e3);
                out.ticks_ms.push((t_reply - acked).as_secs_f64() * 1e3);
                out.ack_after_tick_ms.push(secs * 1e3);
            }
            match reply? {
                Frame::Ack { admitted, shed, .. } => {
                    out.acks_ms.push(secs * 1e3);
                    out.admitted += admitted;
                    out.shed += shed;
                    if i >= tick_buckets && i % tick_buckets == 0 {
                        closing = Some((t_send, t_reply));
                    }
                    break;
                }
                Frame::SlowDown { .. } if attempts < MAX_ATTEMPTS => {}
                Frame::SlowDown { .. } => {
                    out.acks_ms.push(secs * 1e3);
                    out.abandoned += 1;
                    break;
                }
                other => return Err(format!("bad batch reply: {other:?}").into()),
            }
        }
    }
    let (reply, _) = tracer.time("wire.term_to_bye", None, u32::MAX, || {
        exchange(&mut stream, &Frame::Term)
    });
    let t_bye = Instant::now();
    match reply? {
        Frame::Bye => {}
        other => return Err(format!("bad term reply: {other:?}").into()),
    }
    if let Some((sent, acked)) = closing {
        out.verdicts_ms.push((t_bye - sent).as_secs_f64() * 1e3);
        out.ticks_ms.push((t_bye - acked).as_secs_f64() * 1e3);
    }
    out.wall_s = t_feed.elapsed().as_secs_f64();
    Ok(out)
}

/// The `wire` layer alone: encode and decode of one batch frame.
fn shadow_codec(tracer: &mut Tracer, acc: &mut LayerAcc, frame: &Frame, batch: &RecordBatch) {
    let (id, n) = (batch.bucket.0, batch.keys.len() as f64);
    let (payload, enc_s) = tracer.time("wire.encode", None, id, || encode_frame(frame));
    let (decoded, dec_s) = tracer.time("wire.decode", None, id, || decode_frame(&payload));
    std::hint::black_box(decoded).ok();
    acc.ratio("wire.encode_ns_per_record", enc_s * 1e9, n);
    acc.ratio("wire.decode_ns_per_record", dec_s * 1e9, n);
    // Length prefix included.
    acc.ratio("wire.frame_bytes_per_record", (payload.len() + 4) as f64, n);
}

/// Raises the server's shutdown flag when dropped.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One `wire` rep.
pub struct WireRep {
    /// What the feeder saw.
    pub feed: WireFeed,
    /// What the daemon decided (digests read back from the journal).
    pub exact: Exact,
    /// Clean re-opens of the TERM'd state dir, ms each.
    pub reopen_ms: Vec<f64>,
}

/// Runs one rep: fresh state dir, server thread, feeder, join, checks.
pub fn run_rep(
    inputs: &DaemonInputs,
    frames: &[Frame],
    reopen_reps: usize,
    tracer: &mut Tracer,
    layers: Option<&mut LayerAcc>,
    deadline: &Deadline,
) -> Result<WireRep, RepError> {
    let dir = inputs.template.duplicate("wire")?;
    let (mut core, report) = inputs.open_core(dir.path())?;
    if report.mode != StartMode::Recovered || report.ticks_replayed != 0 {
        return Err(format!(
            "rep did not start from the tick-0 checkpoint: {}",
            report.describe()
        )
        .into());
    }
    let server = Server::bind(&ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.ingest_addr;
    let shutdown = AtomicBool::new(false);
    let tick_buckets = inputs.cfg.tick_buckets as usize;

    // No check may fail inside the scope while the server thread is
    // alive: the scope would wait for that thread forever. Errors are
    // carried out as values, and however the feeder ends — `BYE`, an
    // error, a panic — `shutdown` is raised, so `Server::run` drains
    // and returns (after `BYE` it already has).
    let (fed, served) = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run(&mut core, &WallClock, &shutdown));
        let fed = {
            let _stop = RaiseOnDrop(&shutdown);
            feed(addr, frames, tick_buckets, tracer, layers, deadline)
        };
        (fed, handle.join())
    });
    drop(core);
    let served = served
        .map_err(|_| "the server thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("Server::run: {e}")));
    // A feeder error comes first: what the server says after the feeder
    // gave up (a write to a closed socket) is a consequence of it.
    let (feed, summary): (WireFeed, ServeSummary) = match (fed, served) {
        (Ok(feed), Ok(summary)) => (feed, summary),
        (Ok(_), Err(e)) => return Err(e.into()),
        (Err(e), Ok(_)) => return Err(e),
        (Err(mut e), Err(server)) => {
            e.msg = format!("{}; then {server}", e.msg);
            return Err(e);
        }
    };
    check_rep(inputs, &dir, reopen_reps, feed, &summary).map_err(RepError::from)
}

/// The checks of a rep whose feed reached `BYE`.
fn check_rep(
    inputs: &DaemonInputs,
    dir: &StateDir,
    reopen_reps: usize,
    feed: WireFeed,
    summary: &ServeSummary,
) -> Result<WireRep, String> {
    if !summary.clean_shutdown {
        return Err("the server did not shut down cleanly".to_string());
    }
    let s = summary.stats;
    if (feed.offered, feed.admitted, feed.shed) != (s.offered, s.admitted, s.shed_low_impact) {
        return Err(format!(
            "feeder saw offered/admitted/shed {}/{}/{}, the daemon counted {}/{}/{}",
            feed.offered, feed.admitted, feed.shed, s.offered, s.admitted, s.shed_low_impact
        ));
    }
    let scan = journal::scan(dir.path())
        .map_err(|e| format!("journal scan: {e}"))?
        .ok_or("no journal after a wire rep")?;
    if scan.trailing_bytes != 0 || scan.records.len() as u64 != summary.ticks {
        return Err(format!(
            "journal holds {} ticks (+{} torn bytes), the server ran {}",
            scan.records.len(),
            scan.trailing_bytes,
            summary.ticks
        ));
    }
    let exact = Exact::new(
        scan.records.iter().map(|r| r.digest),
        summary.ticks,
        summary.alerts,
        s,
    )?;
    let reopen_ms = reopen_clean(inputs, dir, reopen_reps, exact.ticks)?;
    Ok(WireRep {
        feed,
        exact,
        reopen_ms,
    })
}

/// The frames a rep sends, built before the clock starts.
pub fn frames_of(batches: &[RecordBatch]) -> Vec<Frame> {
    batches
        .iter()
        .map(|b| Frame::Batch { batch: b.clone() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A stream that swallows what is written and replies from a script.
    struct Scripted(Cursor<Vec<u8>>);

    impl Scripted {
        fn replying(frames: &[Frame]) -> Scripted {
            let mut bytes = Vec::new();
            for f in frames {
                write_frame(&mut bytes, f).unwrap();
            }
            Scripted(Cursor::new(bytes))
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_refused_frame_and_a_hang_up_are_a_broken_connection() {
        let ack = Frame::Ack {
            admitted: 1,
            shed: 0,
            queue_depth: 1,
        };
        let refused = Frame::Err {
            msg: "frame crc mismatch".to_string(),
        };
        let mut stream = Scripted::replying(&[ack.clone(), refused]);
        assert_eq!(exchange(&mut stream, &Frame::Term).unwrap(), ack);
        let err = exchange(&mut stream, &Frame::Term).unwrap_err();
        assert!(err.connection_broke && err.msg.contains("crc mismatch"));
        let err = exchange(&mut stream, &Frame::Term).unwrap_err();
        assert!(err.connection_broke && err.msg.contains("closed"));
        // An error made from a plain message is a failed check.
        assert!(!RepError::from("digest differs".to_string()).connection_broke);
    }
}
