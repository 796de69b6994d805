//! The `blameitd` IO shell: ingest socket + plain-HTTP observability.
//!
//! A deliberately small, dependency-free, single-threaded event loop
//! over two nonblocking localhost listeners:
//!
//! * the **ingest** listener speaks the framed [`crate::wire`]
//!   protocol (one feeder connection at a time — the supported
//!   topology, which is also what keeps ingest order deterministic);
//! * the **http** listener answers `GET /metrics` (Prometheus text
//!   from the engine's registry), `GET /alerts` (recent operator
//!   alerts as JSON lines), and `GET /healthz`.
//!
//! All decisions happen in [`DaemonCore`]; this module only moves
//! bytes and paces itself with an injected [`Clock`]. Graceful
//! shutdown is protocol-level: a `TERM` frame (or the external
//! shutdown flag) drains pending tick windows, writes a final
//! snapshot, retires the ingest WAL, and replies `BYE` — after which
//! a restart recovers with zero journal replay.

use crate::clock::Clock;
use crate::core::{DaemonCore, DaemonError, IngestStats};
use crate::wire::{write_frame, Frame, FrameReader, WIRE_VERSION};
use blameit::{Backend, TickOutput};
use blameit_obs::json::Json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where to listen. Port 0 binds an ephemeral port (tests); the bound
/// addresses are on [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Ingest (framed wire protocol) listen address.
    pub ingest_addr: String,
    /// HTTP (metrics/alerts/health) listen address.
    pub http_addr: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ingest_addr: "127.0.0.1:0".to_string(),
            http_addr: "127.0.0.1:0".to_string(),
        }
    }
}

/// `blameitd`'s ingest address by default, and the feeder's.
pub(crate) const DEFAULT_INGEST_ADDR: &str = "127.0.0.1:4815";

/// `blameitd`'s HTTP address by default, and `scrape`'s.
pub(crate) const DEFAULT_HTTP_ADDR: &str = "127.0.0.1:4816";

/// What a serve loop did, for the exit report.
#[derive(Clone, Debug, Default)]
pub struct ServeSummary {
    /// Engine ticks run.
    pub ticks: u64,
    /// Operator alerts emitted.
    pub alerts: u64,
    /// Ingest accounting at exit.
    pub stats: IngestStats,
    /// The shutdown was graceful (TERM or external flag), with a final
    /// snapshot written.
    pub clean_shutdown: bool,
}

/// Idle-loop pause between accept polls, milliseconds.
const IDLE_POLL_MS: u64 = 5;

/// Read timeout on the feeder socket: how often a silent connection
/// yields to the HTTP listener and the shutdown flag.
const FEEDER_POLL: Duration = Duration::from_millis(20);

/// Read timeouts a feeder may spend *inside* one frame (≈ 2 s of
/// silence after the frame's first byte) before it is told `ERR` and
/// dropped. Between frames a feeder may idle indefinitely.
const FRAME_STALL_POLLS: u32 = 100;

/// How long one HTTP client may take to deliver its request header, in
/// total: the responder runs on the single server thread, so a client
/// trickling bytes must not hold ingest up for longer than this.
const HTTP_HEADER_DEADLINE: Duration = Duration::from_millis(200);

/// The bound listeners.
pub struct Server {
    ingest: TcpListener,
    http: TcpListener,
    /// Actual ingest address (resolves port 0).
    pub ingest_addr: SocketAddr,
    /// Actual http address (resolves port 0).
    pub http_addr: SocketAddr,
}

impl Server {
    /// Binds both listeners (nonblocking).
    pub fn bind(cfg: &ServerConfig) -> io::Result<Server> {
        let ingest = TcpListener::bind(&cfg.ingest_addr)?;
        let http = TcpListener::bind(&cfg.http_addr)?;
        ingest.set_nonblocking(true)?;
        http.set_nonblocking(true)?;
        Ok(Server {
            ingest_addr: ingest.local_addr()?,
            http_addr: http.local_addr()?,
            ingest,
            http,
        })
    }

    /// Runs the serve loop until a `TERM` frame arrives or `shutdown`
    /// is set. Both paths drain, snapshot, and retire the WAL before
    /// returning.
    pub fn run<B: Backend>(
        &self,
        core: &mut DaemonCore<B>,
        clock: &dyn Clock,
        shutdown: &AtomicBool,
    ) -> Result<ServeSummary, DaemonError> {
        let mut summary = ServeSummary::default();
        let mut alert_ring: Vec<String> = Vec::new();
        loop {
            if shutdown.load(Ordering::Relaxed) {
                let outs = core.term()?;
                note_ticks(&outs, &mut summary, &mut alert_ring);
                summary.clean_shutdown = true;
                break;
            }
            self.poll_http(core, &alert_ring);
            match self.ingest.accept() {
                Ok((stream, _)) => {
                    let done =
                        self.serve_ingest(stream, core, shutdown, &mut summary, &mut alert_ring)?;
                    if done {
                        summary.clean_shutdown = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    clock.sleep_ms(IDLE_POLL_MS);
                }
                Err(e) => return Err(DaemonError::Io(e)),
            }
        }
        summary.stats = core.stats();
        Ok(summary)
    }

    /// Serves one feeder connection. Returns `Ok(true)` after a TERM
    /// (the daemon should exit), `Ok(false)` when the connection ended —
    /// the peer hung up, cleanly or not (reset, broken pipe). Socket
    /// errors are the feeder's problem; only engine persistence and the
    /// ingest WAL (`Err`) take the daemon down.
    fn serve_ingest<B: Backend>(
        &self,
        mut stream: TcpStream,
        core: &mut DaemonCore<B>,
        shutdown: &AtomicBool,
        summary: &mut ServeSummary,
        alert_ring: &mut Vec<String>,
    ) -> Result<bool, DaemonError> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(FEEDER_POLL)).ok();
        let mut hello_seen = false;
        let mut reader = FrameReader::default();
        let mut stalls = 0u32;
        loop {
            if shutdown.load(Ordering::Relaxed) {
                let outs = core.term()?;
                note_ticks(&outs, summary, alert_ring);
                return Ok(true);
            }
            let frame = match reader.next_frame(&mut stream) {
                Ok(Some(f)) => f,
                Ok(None) => return Ok(false),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Nothing arrived this poll: keep the scrape
                    // endpoint responsive. The reader holds on to a
                    // half-received frame, so a feeder that was merely
                    // descheduled resumes where it stopped; only one
                    // that stays silent mid-frame is cut off.
                    self.poll_http(core, alert_ring);
                    stalls += u32::from(reader.mid_frame());
                    if stalls > FRAME_STALL_POLLS {
                        return refuse(stream, "frame stalled: feeder silent mid-frame".into());
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    return refuse(stream, e.to_string());
                }
                Err(_) => return Ok(false),
            };
            stalls = 0;
            match frame {
                Frame::Hello { version } => {
                    if version != WIRE_VERSION {
                        return refuse(
                            stream,
                            format!("wire version {version} unsupported (want {WIRE_VERSION})"),
                        );
                    }
                    hello_seen = true;
                    let ack = Frame::Ack {
                        admitted: 0,
                        shed: 0,
                        queue_depth: core.queue_depth() as u64,
                    };
                    if write_frame(&mut stream, &ack).is_err() {
                        return Ok(false);
                    }
                }
                Frame::Batch { batch } => {
                    if !hello_seen {
                        return refuse(stream, "batch before hello".into());
                    }
                    let reply = Frame::from(core.offer(batch)?);
                    // The batch is admitted and durable whether or not
                    // the feeder is still there to hear so: pump first,
                    // then drop the connection if the reply bounced.
                    let replied = write_frame(&mut stream, &reply);
                    let outs = core.pump()?;
                    note_ticks(&outs, summary, alert_ring);
                    if replied.is_err() {
                        return Ok(false);
                    }
                }
                Frame::Term => {
                    let outs = core.term()?;
                    note_ticks(&outs, summary, alert_ring);
                    let _ = write_frame(&mut stream, &Frame::Bye);
                    return Ok(true);
                }
                other => {
                    return refuse(stream, format!("unexpected frame from feeder: {other:?}"));
                }
            }
        }
    }

    /// Answers at most a few queued HTTP requests, without blocking.
    fn poll_http<B: Backend>(&self, core: &DaemonCore<B>, alert_ring: &[String]) {
        for _ in 0..4 {
            match self.http.accept() {
                Ok((stream, _)) => serve_http(stream, core, alert_ring),
                Err(_) => return,
            }
        }
    }
}

/// Tells a misbehaving feeder why (`ERR`, best effort) and hangs up;
/// the daemon itself keeps serving.
fn refuse(mut stream: TcpStream, msg: String) -> Result<bool, DaemonError> {
    let _ = write_frame(&mut stream, &Frame::Err { msg });
    Ok(false)
}

fn note_ticks(outs: &[TickOutput], summary: &mut ServeSummary, alert_ring: &mut Vec<String>) {
    for out in outs {
        summary.ticks += 1;
        summary.alerts += out.alerts.len() as u64;
        for a in &out.alerts {
            let culprit = a.culprit.map_or(Json::Null, |asn| u64::from(asn.0).into());
            let line = Json::obj()
                .field("bucket", u64::from(a.bucket.0))
                .field("blame", format!("{:?}", a.blame))
                .field("loc", u64::from(a.loc.0))
                .field("culprit", culprit)
                .field("impacted_connections", a.impacted_connections)
                .field("confidence", (a.confidence * 1e3).round() / 1e3);
            alert_ring.push(line.to_string());
        }
    }
    // Ring cap: the alert stream is an operator tail, not an archive.
    if alert_ring.len() > 256 {
        let excess = alert_ring.len() - 256;
        alert_ring.drain(..excess);
    }
}

/// One-shot HTTP/1.0 responder. Errors are swallowed: observability
/// must never take the daemon down.
fn serve_http<B: Backend>(mut stream: TcpStream, core: &DaemonCore<B>, alert_ring: &[String]) {
    // Read until the header ends: a request may arrive in pieces, and
    // answering (then closing) on half of one resets the client. Past
    // the deadline whatever arrived is answered as it stands.
    // lint:allow(wall-clock): bounds one scrape client's hold on the server thread; never reaches a decision or a transcript
    let deadline = Instant::now() + HTTP_HEADER_DEADLINE;
    let mut buf = [0u8; 2048];
    let mut n = 0;
    while n < buf.len() && !buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
        // lint:allow(wall-clock): the same deadline, re-read per segment
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => n += k,
        }
    }
    let req = String::from_utf8_lossy(&buf[..n]);
    let path = req
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            core.engine().metrics().registry().render_prometheus(),
        ),
        "/alerts" => {
            let mut body = String::new();
            for line in alert_ring {
                body.push_str(line);
                body.push('\n');
            }
            ("200 OK", "application/json", body)
        }
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics /alerts /healthz\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}
