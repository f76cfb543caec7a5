//! The benchmark's deterministic HTTP load generator.
//!
//! Two threads, one keep-alive connection each. Connection `c` sends the
//! requests `i ≡ c (mod 2)` of a phase in index order, so with an even user
//! count every user's requests travel one connection in round order and the
//! daemon applies them in the order the inputs define.
//!
//! * Closed loop: each connection sends its next request when the previous
//!   answer arrives; latency runs from send to answer.
//! * Open loop at rate λ: request `i` is due at `start + (i − first)/λ` and
//!   its latency runs from that due time, so a stall also charges the
//!   requests queued behind it. How late the generator itself sent (beyond
//!   its due time and its connection's previous answer) is kept apart.
//!
//! Every request carries `x-request-id: e2e-<workload>-<i>`; an answer
//! echoing another id counts as failed. Quantiles are read from the raw
//! samples (see [`crate::stats::quantile`]).

use crate::trace::{Span, Tracer};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections (and load threads) per phase.
pub const CONNECTIONS: u64 = 2;

/// How a phase paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    Closed,
    Open { rate: f64 },
}

/// One request: route and JSON body.
pub struct Call {
    pub path: &'static str,
    pub body: String,
}

/// What the workload's validator says about a 200 answer: `Ok(tally)` with
/// a workload-defined count (release attempts; 0 elsewhere), or why the
/// answer is wrong.
pub type Check = Result<u32, String>;

/// A phase: the request indices `first..end`, paced one way.
pub struct Phase<'a> {
    pub name: &'static str,
    pub workload: &'a str,
    pub first: u64,
    pub end: u64,
    pub pace: Pace,
}

/// Client-side record of one phase.
#[derive(Debug, Default)]
pub struct PhaseReport {
    pub sent: u64,
    /// Answers with a status other than 200.
    pub non_ok: u64,
    /// Answers with a 5xx status.
    pub server_errors: u64,
    /// Requests whose exchange failed at the transport.
    pub transport: u64,
    /// 200 answers that echoed the wrong request id or failed validation.
    pub invalid: u64,
    pub elapsed_s: f64,
    /// Latency per answered request in ms, in request order.
    pub latency_ms: Vec<f64>,
    /// Answer time per answered request, seconds since the phase started.
    pub done_s: Vec<f64>,
    /// Send-to-answer time summed over answered requests, ms.
    pub service_ms_sum: f64,
    /// Generator lateness per request in ms, ascending (open loop only).
    pub late_ms: Vec<f64>,
    /// Answers whose validator tally was exactly 1 (releases certified at
    /// the first rung).
    pub tally_ones: u64,
    /// CPU time both load threads used, ms.
    pub cpu_ms: f64,
    pub first_error: Option<String>,
}

impl PhaseReport {
    pub fn failed(&self) -> u64 {
        self.non_ok + self.transport + self.invalid
    }

    fn absorb(&mut self, other: PhaseReport) {
        self.sent += other.sent;
        self.non_ok += other.non_ok;
        self.server_errors += other.server_errors;
        self.transport += other.transport;
        self.invalid += other.invalid;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.done_s.extend(other.done_s);
        self.service_ms_sum += other.service_ms_sum;
        self.late_ms.extend(other.late_ms);
        self.tally_ones += other.tally_ones;
        self.cpu_ms += other.cpu_ms;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn note(&mut self, error: String) {
        if self.first_error.is_none() {
            self.first_error = Some(error);
        }
    }
}

/// A keep-alive client connection with reusable buffers.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    wire: Vec<u8>,
}

/// One parsed answer; `body` indexes [`Conn::body`].
pub struct Answer {
    pub status: u16,
    pub echo_ok: bool,
    body: std::ops::Range<usize>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(16 * 1024),
            wire: Vec::with_capacity(512),
        })
    }

    fn reconnect(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    /// Sends one request and reads its answer.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> io::Result<Answer> {
        self.wire.clear();
        write!(
            self.wire,
            "{method} {path} HTTP/1.1\r\nhost: priste\r\nx-request-id: {request_id}\r\n\
             content-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.write_all(&self.wire)?;
        self.buf.clear();
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("answer head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut echo_ok = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-request-id") {
                echo_ok = value == request_id;
            }
        }
        let start = head_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        Ok(Answer {
            status,
            echo_ok,
            body: start..start + length,
        })
    }

    /// The body bytes of the last answer.
    pub fn body(&self, answer: &Answer) -> &[u8] {
        &self.buf[answer.body.clone()]
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-answer",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// One GET on a fresh connection; the body as text, or `None` unless 200.
pub fn get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut conn = Conn::open(addr).ok()?;
    let answer = conn.exchange("GET", path, "", "e2e-get").ok()?;
    (answer.status == 200).then(|| String::from_utf8_lossy(conn.body(&answer)).into_owned())
}

/// CPU time (user + system) of the calling thread in ms, from
/// `/proc/thread-self/stat` at the kernel's 100 Hz tick; 0 elsewhere.
fn thread_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of stat(5); `rest` starts at field 3.
    (ticks(11) + ticks(12)) * 10.0
}

/// Runs one phase against `addr` on [`CONNECTIONS`] threads and returns
/// the merged client-side record. `call` builds request `i`; `check`
/// validates a 200 answer's body. Request spans (parented to `parent`) go
/// to `tracer` when it is enabled.
pub fn run_phase(
    addr: SocketAddr,
    phase: &Phase<'_>,
    call: &(dyn Fn(u64) -> Call + Sync),
    check: &(dyn Fn(u64, &[u8]) -> Check + Sync),
    tracer: &Tracer,
    parent: u64,
) -> PhaseReport {
    let start = Instant::now();
    let mut report = PhaseReport::default();
    let mut latency: Vec<(u64, f64)> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || connection(addr, phase, c, start, call, check, tracer, parent))
            })
            .collect();
        for w in workers {
            let (part, part_latency, spans) = w.join().expect("load thread panicked");
            report.absorb(part);
            latency.extend(part_latency);
            tracer.extend(spans);
        }
    });
    latency.sort_by_key(|&(i, _)| i);
    report.latency_ms = latency.into_iter().map(|(_, ms)| ms).collect();
    crate::stats::sort(&mut report.late_ms);
    report
}

#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    phase: &Phase<'_>,
    c: u64,
    start: Instant,
    call: &(dyn Fn(u64) -> Call + Sync),
    check: &(dyn Fn(u64, &[u8]) -> Check + Sync),
    tracer: &Tracer,
    parent: u64,
) -> (PhaseReport, Vec<(u64, f64)>, Vec<Span>) {
    let cpu0 = thread_cpu_ms();
    let mut report = PhaseReport::default();
    let mut latency = Vec::new();
    let mut spans = Vec::new();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => Some(conn),
        Err(e) => {
            report.note(format!("connect: {e}"));
            None
        }
    };
    let mut request_id = String::with_capacity(64);
    let mut prev_done = start;
    let first = phase.first + (c + CONNECTIONS - phase.first % CONNECTIONS) % CONNECTIONS;
    for i in (first..phase.end).step_by(CONNECTIONS as usize) {
        let due = match phase.pace {
            Pace::Closed => None,
            Pace::Open { rate } => {
                let due = start + Duration::from_secs_f64((i - phase.first) as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                Some(due)
            }
        };
        let req = call(i);
        request_id.clear();
        let _ =
            std::fmt::Write::write_fmt(&mut request_id, format_args!("e2e-{}-{i}", phase.workload));
        report.sent += 1;
        let sent_at = Instant::now();
        let answer = match conn.as_mut() {
            Some(conn) => conn.exchange("POST", req.path, &req.body, &request_id),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        };
        let done = Instant::now();
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                report.transport += 1;
                report.note(format!("{} request {i}: {e}", phase.name));
                conn = match conn.take() {
                    Some(mut old) => old.reconnect().ok().map(|()| old),
                    None => Conn::open(addr).ok(),
                };
                prev_done = done;
                continue;
            }
        };
        if let Some(due) = due {
            let ready = due.max(prev_done);
            report
                .late_ms
                .push(sent_at.saturating_duration_since(ready).as_secs_f64() * 1e3);
        }
        prev_done = done;
        let from = due.unwrap_or(sent_at);
        latency.push((i, done.duration_since(from).as_secs_f64() * 1e3));
        report.service_ms_sum += done.duration_since(sent_at).as_secs_f64() * 1e3;
        report.elapsed_s = done.duration_since(start).as_secs_f64();
        report.done_s.push(report.elapsed_s);
        if tracer.enabled() {
            spans.push(Span {
                name: req.path,
                id: i,
                parent,
                start_us: tracer.now_us(sent_at),
                end_us: tracer.now_us(done),
            });
        }
        if answer.status != 200 {
            report.non_ok += 1;
            if answer.status >= 500 {
                report.server_errors += 1;
            }
            report.note(format!(
                "{} request {i}: status {}",
                phase.name, answer.status
            ));
            continue;
        }
        let conn = conn.as_ref().expect("answered on a live connection");
        let verdict = if answer.echo_ok {
            check(i, conn.body(&answer))
        } else {
            Err("x-request-id not echoed".to_owned())
        };
        match verdict {
            Ok(tally) => report.tally_ones += u64::from(tally == 1),
            Err(why) => {
                report.invalid += 1;
                report.note(format!("{} request {i}: {why}", phase.name));
            }
        }
    }
    report.cpu_ms = thread_cpu_ms() - cpu0;
    (report, latency, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A throwaway HTTP server: one thread per load connection, each
    /// echoing the request id and the body until its client hangs up.
    /// Joining it yields every request id it saw.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut streams: Vec<TcpStream> = Vec::new();
            // One connection per load thread.
            for _ in 0..CONNECTIONS {
                streams.push(listener.accept().unwrap().0);
            }
            let handles: Vec<_> = streams
                .into_iter()
                .map(|mut s| {
                    std::thread::spawn(move || {
                        let mut ids = Vec::new();
                        let mut buf = Vec::new();
                        loop {
                            let head_end = loop {
                                if let Some(p) = find(&buf, b"\r\n\r\n") {
                                    break Some(p);
                                }
                                let mut chunk = [0u8; 4096];
                                match s.read(&mut chunk) {
                                    Ok(0) | Err(_) => break None,
                                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                                }
                            };
                            let Some(head_end) = head_end else {
                                return ids;
                            };
                            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                            let len: usize = head
                                .lines()
                                .find_map(|l| l.strip_prefix("content-length: "))
                                .unwrap()
                                .parse()
                                .unwrap();
                            let id = head
                                .lines()
                                .find_map(|l| l.strip_prefix("x-request-id: "))
                                .unwrap()
                                .to_owned();
                            while buf.len() < head_end + 4 + len {
                                let mut chunk = [0u8; 4096];
                                let n = s.read(&mut chunk).unwrap();
                                buf.extend_from_slice(&chunk[..n]);
                            }
                            let body = buf[head_end + 4..head_end + 4 + len].to_vec();
                            buf.drain(..head_end + 4 + len);
                            let answer = format!(
                                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nx-request-id: {id}\r\n\r\n",
                                body.len()
                            );
                            s.write_all(answer.as_bytes()).unwrap();
                            s.write_all(&body).unwrap();
                            ids.push(id);
                        }
                    })
                })
                .collect();
            for h in handles {
                seen.extend(h.join().unwrap());
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn schedule_is_pure_and_ids_echo() {
        let (addr, server) = echo_server();
        let tracer = Tracer::new(true);
        let phase = Phase {
            name: "test",
            workload: "unit",
            first: 4,
            end: 14,
            pace: Pace::Open { rate: 2_000.0 },
        };
        // Each request's body names its own index: the check sees exactly
        // the request it made, whichever thread sent it.
        let report = run_phase(
            addr,
            &phase,
            &|i| Call {
                path: "/echo",
                body: format!("{{\"i\": {i}}}"),
            },
            &|i, body| {
                (body == format!("{{\"i\": {i}}}").as_bytes())
                    .then_some(1)
                    .ok_or_else(|| "wrong body".to_owned())
            },
            &tracer,
            0,
        );
        assert_eq!(report.sent, 10);
        assert_eq!(report.failed(), 0, "{:?}", report.first_error);
        assert_eq!(report.tally_ones, 10);
        assert_eq!(report.latency_ms.len(), 10);
        assert_eq!(report.late_ms.len(), 10);
        // Open loop at 2000/s: the last request is due 4.5 ms after start.
        assert!(report.elapsed_s >= 0.0045);
        let mut ids = server.join().unwrap();
        ids.sort();
        let mut want: Vec<String> = (4..14).map(|i| format!("e2e-unit-{i}")).collect();
        want.sort();
        assert_eq!(ids, want);
        // Request spans carry the request index as their id.
        assert_eq!(tracer.len(), 10);
    }

    #[test]
    fn connections_split_requests_by_parity() {
        // Connection c takes i ≡ c (mod 2) whatever the first index, so
        // with an even user count a user's requests share one connection.
        for first in [0u64, 1, 6, 7] {
            for c in 0..CONNECTIONS {
                let start = first + (c + CONNECTIONS - first % CONNECTIONS) % CONNECTIONS;
                assert!(start >= first && start < first + CONNECTIONS);
                assert_eq!(start % CONNECTIONS, c);
            }
        }
    }
}
