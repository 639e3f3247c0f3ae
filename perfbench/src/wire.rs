//! `wire`: a spawned release `sam_serviced` on a Unix socket, driven over
//! one connection at a time in strict request/response (one request in
//! flight).
//! Requests of 1024 `i32` cycle through five families: plain sum,
//! segmented sum, `rec[2]`, `rec[2,-1]` and one frame of a
//! checkpoint-chained streaming sum. The interleaved calibration echoes a
//! frame of the same size over a `UnixStream::pair` to a thread of the
//! benchmark's own.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sam_service::wire::{self, Request};
use sam_service::{ScanKind, ScanOutput, ScanRequest, ScanService, ServiceConfig};

use crate::common::{median, secs, summarize, Measured, Metrics, Outcome, Rng, Tally};
use crate::oracle::{self, StreamOracle};
use crate::trace::{SpanId, Tracer};

pub const WIRE_ELEMS: usize = 1024;
const FAMILIES: usize = 5;
const STREAM_FAMILY: usize = 4;
const POOL_PER_FAMILY: usize = 16;
const SLICE: Duration = Duration::from_millis(200);
/// Echo round trips per calibration slice.
const CAL_TRIPS: usize = 1000;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Requests wrapped in spans in the traced pass: one in this many.
const SPAN_STRIDE: usize = 8;

/// Echo round trips per second (1 / median echo RTT) of the reference
/// host; see README.md.
pub const REF_ECHO_PER_S: f64 = 37_000.0;
/// 99th-percentile echo round trip of the reference host, µs.
pub const REF_ECHO_P99_US: f64 = 58.0;

/// Seeded request pool, `POOL_PER_FAMILY` entries per family; entry `i`
/// belongs to family `i % FAMILIES`. Streaming entries carry only their
/// values: the chain adds the streaming flag and checkpoint when sent.
pub fn pool(seed: u64) -> Vec<ScanRequest> {
    let mut rng = Rng::new(seed, "wire");
    (0..FAMILIES * POOL_PER_FAMILY)
        .map(|i| {
            let family = i % FAMILIES;
            let kind = if family != STREAM_FAMILY && rng.one_in(2) {
                ScanKind::Exclusive
            } else {
                ScanKind::Inclusive
            };
            let values = (0..WIRE_ELEMS).map(|_| rng.signed(1000) as i32).collect();
            let request = ScanRequest::new(format!("tenant-{}", i % 8), kind, values);
            match family {
                1 => {
                    let heads = (0..WIRE_ELEMS).map(|_| rng.one_in(16)).collect();
                    request.with_heads(heads)
                }
                2 => request.with_recurrence(vec![2]),
                3 => request.with_recurrence(vec![2, -1]),
                _ => request,
            }
        })
        .collect()
}

/// The checkpoint chain of the streaming family.
#[derive(Default)]
struct Chain {
    checkpoint: Option<Vec<u8>>,
}

impl Chain {
    /// The next request for pool entry `base`: other families go as they
    /// are; a streaming frame continues the chain (or starts one).
    fn request(&mut self, base: &ScanRequest, family: usize) -> (ScanRequest, bool) {
        if family != STREAM_FAMILY {
            return (base.clone(), false);
        }
        match self.checkpoint.take() {
            Some(checkpoint) => (base.clone().with_checkpoint(checkpoint), false),
            None => (base.clone().streaming(), true),
        }
    }
}

/// A response kept for the oracle check after its slice.
struct Answer {
    idx: usize,
    new_chain: bool,
    values: Vec<i32>,
}

/// Checks answers in send order (the streaming oracle carries state).
fn check(
    answers: &mut Vec<Answer>,
    requests: &[ScanRequest],
    stream: &mut StreamOracle,
    tally: &mut Tally,
) {
    for a in answers.drain(..) {
        let request = &requests[a.idx];
        let want = if a.idx % FAMILIES == STREAM_FAMILY {
            if a.new_chain {
                *stream = StreamOracle::default();
            }
            stream.frame(request.kind, &request.values)
        } else {
            oracle::expected(request)
        };
        tally.check("wire", &a.values, &want);
    }
}

/// A spawned `sam_serviced`, killed and reaped on drop unless shut down.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    pub fn spawn(bin: &Path, socket: &Path) -> io::Result<Daemon> {
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        Ok(Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, retrying until the daemon has bound its socket.
    pub fn connect(&mut self) -> io::Result<UnixStream> {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => return Ok(stream),
                Err(e) if start.elapsed() > CONNECT_TIMEOUT => return Err(e),
                Err(_) => {
                    if let Some(status) = self
                        .child
                        .as_mut()
                        .and_then(|c| c.try_wait().ok().flatten())
                    {
                        return Err(io::Error::other(format!(
                            "sam_serviced exited early: {status}"
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// Graceful shutdown over `stream` (its handler then exits), and reap.
    pub fn shutdown(mut self, stream: UnixStream) -> io::Result<()> {
        let ack = sam_service::wire::Client::from_stream(stream).shutdown_server();
        let status = self.child.take().expect("daemon still owned").wait()?;
        ack?.map_err(io::Error::other)?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "sam_serviced exited with {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One strict request/response exchange, with the client codec and the
/// socket round trip as separate spans.
fn exchange(
    stream: &mut UnixStream,
    request: &ScanRequest,
    tracer: &mut Tracer,
    parent: SpanId,
    id: u64,
) -> io::Result<Result<ScanOutput, String>> {
    let span = tracer.open("wire.encode_request", parent, id);
    let payload = wire::encode_scan(request).map_err(io::Error::other)?;
    tracer.close(span);
    let span = tracer.open("socket.roundtrip", parent, id);
    wire::write_frame(stream, &payload)?;
    let frame = wire::read_frame(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "sam_serviced hung up"))?;
    tracer.close(span);
    let span = tracer.open("wire.decode_response", parent, id);
    let response = wire::decode_response(&frame).map_err(io::Error::other);
    tracer.close(span);
    response
}

/// The echo peer of the calibration: returns every frame it reads.
fn echo(mut stream: UnixStream) {
    while let Ok(Some(frame)) = wire::read_frame(&mut stream) {
        if wire::write_frame(&mut stream, &frame).is_err() {
            return;
        }
    }
}

/// `CAL_TRIPS` echo round trips of `frame`; returns their RTTs in µs.
fn echo_slice(peer: &mut UnixStream, frame: &[u8]) -> io::Result<Vec<f64>> {
    let mut rtts = Vec::with_capacity(CAL_TRIPS);
    for _ in 0..CAL_TRIPS {
        let t0 = Instant::now();
        wire::write_frame(peer, frame)?;
        wire::read_frame(peer)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "echo peer hung up"))?;
        rtts.push(secs(t0.elapsed()) * 1e6);
    }
    Ok(rtts)
}

pub fn socket_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("sam-{}.sock", std::process::id()))
}

/// What depth-1 traffic against the daemon measured: set-up cycles,
/// per-request latencies, completed requests, slice time, and the echo
/// calibration (every RTT, and each slice's rate, 1 / median RTT).
struct Traffic {
    setup_s: Vec<f64>,
    latency_us: Vec<Vec<f64>>,
    completed: u64,
    slice_time: f64,
    echo_us: Vec<f64>,
    echo_rates: Vec<f64>,
    echo_p99: Vec<f64>,
}

/// Depth-1 traffic for `seconds`. Every slice runs on a daemon of its own,
/// spawned (one set-up cycle) before the slice and shut down after it, so
/// a run averages over many placements of the daemon's threads; the
/// streaming chain carries its checkpoint across daemons. Each slice is
/// followed by its oracle check and an echo calibration slice.
fn traffic(
    bin: &Path,
    socket: &Path,
    requests: &[ScanRequest],
    seconds: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<Traffic> {
    let echo_frame = wire::encode_scan(&requests[0]).map_err(io::Error::other)?;
    let (peer, far) = UnixStream::pair()?;
    let mut out = Traffic {
        setup_s: Vec::new(),
        latency_us: Vec::new(),
        completed: 0,
        slice_time: 0.0,
        echo_us: Vec::new(),
        echo_rates: Vec::new(),
        echo_p99: Vec::new(),
    };
    let mut chain = Chain::default();
    let mut stream_oracle = StreamOracle::default();
    let mut answers = Vec::new();
    let mut untraced = Tracer::new(false);
    std::thread::scope(|scope| -> io::Result<()> {
        scope.spawn(move || echo(far));
        // `peer` moves in and closes when this closure returns, ending the
        // echo thread even on an early error.
        let mut peer = peer;
        let start = Instant::now();
        let mut next = 0usize;
        while secs(start.elapsed()) < seconds || out.echo_us.is_empty() {
            let span = tracer.open("wire.setup", SpanId::NONE, next as u64);
            let (setup_s, daemon, mut stream) = setup_cycle(bin, socket, requests, tally)?;
            tracer.close(span);
            out.setup_s.push(setup_s);
            let slice_span = tracer.open("wire.slice", SpanId::NONE, next as u64);
            let mut slice_lat = Vec::new();
            let t_slice = Instant::now();
            while t_slice.elapsed() < SLICE {
                let idx = next % requests.len();
                let (request, new_chain) = chain.request(&requests[idx], idx % FAMILIES);
                let spans = if next.is_multiple_of(SPAN_STRIDE) {
                    &mut *tracer
                } else {
                    &mut untraced
                };
                let span = spans.open("wire.request", slice_span, next as u64);
                let t0 = Instant::now();
                let response = exchange(&mut stream, &request, spans, span, next as u64)?;
                slice_lat.push(secs(t0.elapsed()) * 1e6);
                spans.close(span);
                match response {
                    Ok(output) => {
                        if idx % FAMILIES == STREAM_FAMILY {
                            chain.checkpoint = output.checkpoint;
                        }
                        answers.push(Answer {
                            idx,
                            new_chain,
                            values: output.values,
                        });
                    }
                    Err(message) => {
                        if idx % FAMILIES == STREAM_FAMILY {
                            chain.checkpoint = None;
                        }
                        tally.fail(|| format!("wire request refused: {message}"));
                    }
                }
                next += 1;
            }
            out.slice_time += secs(t_slice.elapsed());
            out.completed += slice_lat.len() as u64;
            tracer.close(slice_span);
            daemon.shutdown(stream)?;

            let span = tracer.open("check.oracle", SpanId::NONE, next as u64);
            check(&mut answers, requests, &mut stream_oracle, tally);
            tracer.close(span);

            let span = tracer.open("calib.echo", SpanId::NONE, next as u64);
            let mut rtts = echo_slice(&mut peer, &echo_frame)?;
            tracer.close(span);
            let echo = summarize(&mut rtts);
            out.echo_rates.push(1e6 / echo.p50);
            out.echo_p99.push(echo.p99);
            out.latency_us.push(slice_lat);
            out.echo_us.extend(rtts);
        }
        Ok(())
    })?;
    Ok(out)
}

/// One set-up cycle: spawn through the first response from every lane.
/// Returns the elapsed seconds, the daemon and its open connection.
fn setup_cycle(
    bin: &Path,
    socket: &Path,
    requests: &[ScanRequest],
    tally: &mut Tally,
) -> io::Result<(f64, Daemon, UnixStream)> {
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(bin, socket)?;
    let mut stream = daemon.connect()?;
    let mut answers = Vec::with_capacity(FAMILIES);
    let mut chain = Chain::default();
    let mut off = Tracer::new(false);
    for (idx, base) in requests.iter().enumerate().take(FAMILIES) {
        let (request, new_chain) = chain.request(base, idx);
        match exchange(&mut stream, &request, &mut off, SpanId::NONE, 0)? {
            Ok(output) => answers.push(Answer {
                idx,
                new_chain,
                values: output.values,
            }),
            Err(message) => tally.fail(|| format!("wire setup refused: {message}")),
        }
    }
    let elapsed = secs(t0.elapsed());
    check(&mut answers, requests, &mut StreamOracle::default(), tally);
    Ok((elapsed, daemon, stream))
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    bin: &Path,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let requests = pool(seed);
    let socket = socket_path(out_dir);
    let mut tally = Tally::default();
    let mut t = traffic(bin, &socket, &requests, seconds, tracer, &mut tally)?;

    let mut metrics = Metrics::default();
    let echo_s = t.echo_us.iter().sum::<f64>() / 1e6;
    let echo_p50 = median(&mut t.echo_us);
    let echo_n = t.echo_us.len();
    let samples = vec![
        ("setup_cycles", t.setup_s.len()),
        ("latency", t.latency_us.iter().map(Vec::len).sum()),
        ("latency_slices", t.latency_us.len()),
        ("echo", echo_n),
    ];
    let lat = Measured {
        setup_s: t.setup_s,
        requests: t.completed,
        busy_s: t.slice_time,
        elems_per_request: WIRE_ELEMS as f64,
        slices: t.latency_us,
        cal_rates: t.echo_rates,
        cal_s: echo_s,
        cal_p99_us: t.echo_p99,
        ref_rate: REF_ECHO_PER_S,
        ref_p99_us: REF_ECHO_P99_US,
    }
    .put(&mut metrics);
    eprintln!(
        "wire: {} requests of {WIRE_ELEMS} i32 at depth 1: {:.0} req/s, p50 {:.1} us, \
         p99 {:.1} us ({} samples); echo p50 {echo_p50:.1} us ({} samples)",
        t.completed,
        metrics.get("raw.req_per_s").unwrap_or(0.0),
        lat.p50,
        lat.p99,
        lat.n,
        echo_n
    );
    Ok(Outcome {
        metrics,
        tally,
        samples,
    })
}

/// The `sam_serviced` layer probe, run in every traced invocation: depth-1
/// traffic against a fresh daemon with echo calibration, then the same
/// frames decomposed in process (client encode, `decode_request`,
/// `ScanService` submit/wait, `encode_response`, `decode_response`) with
/// each call timed. Reports the codec, transport and residual metrics,
/// and the in-process service's accounting (one request in flight, so its
/// coalescing factor reads 1).
pub fn serviced_probe(
    seed: u64,
    seconds: f64,
    bin: &Path,
    out_dir: &Path,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> io::Result<()> {
    let requests = pool(seed);
    let socket = socket_path(out_dir);
    let mut t = traffic(
        bin,
        &socket,
        &requests,
        seconds,
        &mut Tracer::new(false),
        tally,
    )?;
    let rtt_p50 = median(&mut t.latency_us.concat());
    let echo_p50 = median(&mut t.echo_us);

    let service = ScanService::start(ServiceConfig::default());
    let n = requests.len() * 8;
    let mut parts: [Vec<f64>; 6] = Default::default();
    let (mut total, mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut chain = Chain::default();
    let mut stream_oracle = StreamOracle::default();
    let mut answers = Vec::new();
    for i in 0..n {
        let idx = i % requests.len();
        let (request, new_chain) = chain.request(&requests[idx], idx % FAMILIES);
        let elems = request.values.len() as f64;
        let t0 = Instant::now();
        let payload = wire::encode_scan(&request).map_err(io::Error::other)?;
        let t1 = Instant::now();
        let decoded = match wire::decode_request(&payload).map_err(io::Error::other)? {
            Request::Scan(decoded) => decoded,
            Request::Shutdown => return Err(io::Error::other("scan frame decoded as shutdown")),
        };
        let t2 = Instant::now();
        let handle = service.submit(decoded);
        let t3 = Instant::now();
        let result = match handle {
            Ok(handle) => handle.wait_output().map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let t4 = Instant::now();
        let response = wire::encode_response(&result).map_err(io::Error::other)?;
        let t5 = Instant::now();
        let back = wire::decode_response(&response).map_err(io::Error::other)?;
        let t6 = Instant::now();
        let ts = [t0, t1, t2, t3, t4, t5, t6];
        for (k, part) in parts.iter_mut().enumerate() {
            part.push(secs(ts[k + 1] - ts[k]) * 1e9);
        }
        for k in [0, 1, 4, 5] {
            *parts[k].last_mut().expect("just pushed") /= elems;
        }
        total.push(secs(t6 - t0) * 1e6);
        // Frame bytes on the socket include the 4-byte length prefix.
        req_bytes.push((payload.len() + 4) as f64 / elems);
        resp_bytes.push((response.len() + 4) as f64 / elems);
        match back {
            Ok(output) => {
                if idx % FAMILIES == STREAM_FAMILY {
                    chain.checkpoint = output.checkpoint;
                }
                answers.push(Answer {
                    idx,
                    new_chain,
                    values: output.values,
                });
            }
            Err(message) => {
                if idx % FAMILIES == STREAM_FAMILY {
                    chain.checkpoint = None;
                }
                tally.fail(|| format!("in-process request refused: {message}"));
            }
        }
    }
    check(&mut answers, &requests, &mut stream_oracle, tally);
    let mut totals = crate::micro::ServiceTotals::default();
    totals.add(&service.metrics());
    service.shutdown();

    let [enc_req, dec_req, submit_ns, wait_ns, enc_resp, dec_resp] = &mut parts;
    let inproc_p50 = median(&mut total);
    metrics.put("wire.encode_request_ns_per_elem", median(enc_req), "ns");
    metrics.put("wire.decode_request_ns_per_elem", median(dec_req), "ns");
    metrics.put("wire.encode_response_ns_per_elem", median(enc_resp), "ns");
    metrics.put("wire.decode_response_ns_per_elem", median(dec_resp), "ns");
    metrics.put("wire.request_bytes_per_elem", median(&mut req_bytes), "B");
    metrics.put("wire.response_bytes_per_elem", median(&mut resp_bytes), "B");
    metrics.put("transport.echo_rtt_us_p50", echo_p50, "us");
    metrics.put("serviced.residual_us_p50", rtt_p50 - inproc_p50, "us");
    let mut wait_us: Vec<f64> = wait_ns.iter().map(|ns| ns / 1e3).collect();
    totals.put(metrics, submit_ns, &mut wait_us);
    eprintln!(
        "serviced probe: socket RTT p50 {rtt_p50:.1} us, in-process p50 {inproc_p50:.1} us, \
         echo p50 {echo_p50:.1} us; {} in-process requests",
        n
    );
    Ok(())
}
