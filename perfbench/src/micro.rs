//! `micro`: an in-process `ScanService` (default configuration) fed by one
//! submitter thread that keeps a closed window of 256 outstanding
//! 32-element requests. The interleaved calibration is a two-thread
//! `Mutex` + `Condvar` ping-pong, the hand-off the service's admission
//! queue and response slots are built on, carrying one fused batch.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sam_service::{ResponseHandle, ScanKind, ScanRequest, ScanService, ServiceConfig};

use crate::common::{median, secs, summarize, Measured, Metrics, Outcome, Rng, Tally};
use crate::oracle;
use crate::trace::{SpanId, Tracer};

pub const MICRO_ELEMS: usize = 32;
/// Requests outstanding at once (closed loop).
pub const WINDOW: usize = 256;
const TENANTS: usize = 8;
const POOL: usize = 4096;
/// Timed window slice, then a drain, then a calibration slice.
const SLICE: Duration = Duration::from_millis(200);
const CAL_SLICE: Duration = Duration::from_millis(40);
/// Requests timed around `submit`/`wait` in the traced pass: one in this
/// many (the rest run unwrapped so the recorder stays small).
const SPAN_STRIDE: u64 = 64;

/// Ping-pong round trips per second (1 / median round trip) of the
/// reference host; see README.md.
pub const REF_PINGPONG_PER_S: f64 = 37_000.0;
/// 99th-percentile ping-pong round trip of the reference host, µs.
pub const REF_PINGPONG_P99_US: f64 = 46.0;

/// Seeded micro requests: plain and segmented, inclusive and exclusive,
/// across eight tenants.
pub fn pool(seed: u64) -> Vec<ScanRequest> {
    let mut rng = Rng::new(seed, "micro");
    (0..POOL)
        .map(|i| {
            let kind = if rng.one_in(2) {
                ScanKind::Inclusive
            } else {
                ScanKind::Exclusive
            };
            let values = (0..MICRO_ELEMS).map(|_| rng.signed(1000) as i32).collect();
            let request = ScanRequest::new(format!("tenant-{}", i % TENANTS), kind, values);
            if rng.one_in(2) {
                let heads = (0..MICRO_ELEMS).map(|_| rng.one_in(8)).collect();
                request.with_heads(heads)
            } else {
                request
            }
        })
        .collect()
}

/// Two threads handing a turn, and with it one fused batch of the
/// workload's shape (`WINDOW` requests of `MICRO_ELEMS`), back and forth
/// under one mutex: the caller refills the batch, the partner scans each
/// request's segment in place. A bare turn counter was tried first; its
/// rate, set by wake-up latency alone, moved with the service's rate far
/// less than this one, which also pays for the batch's data and work.
pub struct PingPong {
    state: Mutex<Turn>,
    cv: Condvar,
}

struct Turn {
    count: u64,
    stop: bool,
    batch: Vec<i32>,
}

impl PingPong {
    pub fn new() -> PingPong {
        PingPong {
            state: Mutex::new(Turn {
                count: 0,
                stop: false,
                batch: vec![0; WINDOW * MICRO_ELEMS],
            }),
            cv: Condvar::new(),
        }
    }

    /// The partner side: answers every odd turn until stopped.
    pub fn serve(&self) {
        let mut g = self.state.lock().expect("ping-pong lock");
        loop {
            while g.count.is_multiple_of(2) && !g.stop {
                g = self.cv.wait(g).expect("ping-pong lock");
            }
            if g.stop {
                return;
            }
            for segment in g.batch.chunks_mut(MICRO_ELEMS) {
                let mut run = 0i32;
                for v in segment {
                    run = run.wrapping_add(*v);
                    *v = run;
                }
            }
            g.count += 1;
            self.cv.notify_one();
        }
    }

    /// Round trips of `batch` for `dur`; returns each trip's time, µs, and
    /// the seconds they took.
    pub fn run_for(&self, dur: Duration, batch: &[i32]) -> (Vec<f64>, f64) {
        let start = Instant::now();
        let mut trips = Vec::new();
        while start.elapsed() < dur {
            let t0 = Instant::now();
            let mut g = self.state.lock().expect("ping-pong lock");
            g.batch.copy_from_slice(batch);
            g.count += 1;
            self.cv.notify_one();
            while g.count % 2 == 1 {
                g = self.cv.wait(g).expect("ping-pong lock");
            }
            black_box(&g.batch);
            drop(g);
            trips.push(secs(t0.elapsed()) * 1e6);
        }
        (trips, secs(start.elapsed()))
    }
}

/// Stops the partner when dropped, so a scope holding it always joins.
pub struct StopOnDrop<'a>(pub &'a PingPong);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        if let Ok(mut g) = self.0.state.lock() {
            g.stop = true;
        }
        self.0.cv.notify_all();
    }
}

struct Pending {
    handle: ResponseHandle,
    idx: usize,
    t0: Instant,
    id: u64,
}

/// Waits for the oldest outstanding request; returns its latency in µs.
fn complete(
    p: Pending,
    tracer: &mut Tracer,
    parent: SpanId,
    wait_us: &mut Vec<f64>,
    done: &mut Vec<(usize, Result<Vec<i32>, sam_service::RequestError>)>,
) -> f64 {
    let sampled = tracer.on() && p.id.is_multiple_of(SPAN_STRIDE);
    let span = if sampled {
        tracer.open("service.wait", parent, p.id)
    } else {
        SpanId::NONE
    };
    let tw = Instant::now();
    let result = p.handle.wait();
    let now = Instant::now();
    tracer.close(span);
    if sampled {
        wait_us.push(secs(now - tw) * 1e6);
    }
    done.push((p.idx, result));
    secs(now - p.t0) * 1e6
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let requests = pool(seed);
    let expected: Vec<Vec<i32>> = requests.iter().map(oracle::expected).collect();
    let mut tally = Tally::default();

    let mut setup = Vec::new();
    let mut totals = ServiceTotals::default();
    let pingpong = PingPong::new();
    let cal_batch: Vec<i32> = requests
        .iter()
        .take(WINDOW)
        .flat_map(|r| r.values.iter().copied())
        .collect();
    let mut slice_time = 0.0;
    let mut completed = 0u64;
    let (mut cal_rates, mut cal_p99, mut cal_time) = (Vec::new(), Vec::new(), 0.0);
    let mut raw_lat = Vec::new();
    let (mut submit_ns, mut wait_us) = (Vec::new(), Vec::new());
    let mut done = Vec::with_capacity(1 << 18);
    let mut next = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(|| pingpong.serve());
        let _stop = StopOnDrop(&pingpong);
        let mut window: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
        let start = Instant::now();
        while secs(start.elapsed()) < seconds || cal_rates.is_empty() {
            // A fresh service per slice, started outside the timed slice:
            // one run then averages over many placements of the submitter
            // and executor threads on the two cores, which otherwise shift
            // a whole run's figures by several percent. Each start through
            // its first response is one set-up cycle.
            let span = tracer.open("micro.setup", SpanId::NONE, next);
            let t0 = Instant::now();
            let service = ScanService::start(ServiceConfig::default());
            let first = service.scan(requests[0].clone());
            setup.push(secs(t0.elapsed()));
            tracer.close(span);
            match first {
                Ok(values) => tally.check("micro setup", &values, &expected[0]),
                Err(e) => tally.fail(|| format!("micro setup: {e}")),
            }
            let slice_span = tracer.open("micro.slice", SpanId::NONE, next);
            let mut slice_lat = Vec::with_capacity(1 << 17);
            let t_slice = Instant::now();
            while t_slice.elapsed() < SLICE {
                while window.len() < WINDOW {
                    let idx = next as usize % POOL;
                    let request = requests[idx].clone();
                    let sampled = tracer.on() && next.is_multiple_of(SPAN_STRIDE);
                    let span = if sampled {
                        tracer.open("service.submit", slice_span, next)
                    } else {
                        SpanId::NONE
                    };
                    let t0 = Instant::now();
                    let submitted = service.submit(request);
                    if sampled {
                        submit_ns.push(secs(t0.elapsed()) * 1e9);
                    }
                    tracer.close(span);
                    next += 1;
                    match submitted {
                        Ok(handle) => window.push_back(Pending {
                            handle,
                            idx,
                            t0,
                            id: next - 1,
                        }),
                        Err(e) => {
                            tally.fail(|| format!("micro submit: {e}"));
                            break;
                        }
                    }
                }
                if let Some(oldest) = window.pop_front() {
                    slice_lat.push(complete(
                        oldest,
                        tracer,
                        slice_span,
                        &mut wait_us,
                        &mut done,
                    ));
                }
            }
            // Drain before calibrating, so no request's latency absorbs
            // the calibration pause.
            let drain = tracer.open("micro.drain", slice_span, next);
            while let Some(p) = window.pop_front() {
                slice_lat.push(complete(p, tracer, drain, &mut wait_us, &mut done));
            }
            tracer.close(drain);
            slice_time += secs(t_slice.elapsed());
            completed += slice_lat.len() as u64;
            tracer.close(slice_span);
            totals.add(&service.metrics());
            service.shutdown();

            let check = tracer.open("check.oracle", SpanId::NONE, next);
            for (idx, result) in done.drain(..) {
                match result {
                    Ok(values) => tally.check("micro", &values, &expected[idx]),
                    Err(e) => tally.fail(|| format!("micro request: {e}")),
                }
            }
            tracer.close(check);

            let cal = tracer.open("calib.pingpong", SpanId::NONE, next);
            let (mut trips, t) = pingpong.run_for(CAL_SLICE, &cal_batch);
            tracer.close(cal);
            // One over the median round trip, as for the `wire` echo: host
            // stalls lengthen a few round trips, not the median one.
            let trip = summarize(&mut trips);
            cal_rates.push(1e6 / trip.p50);
            cal_p99.push(trip.p99);
            cal_time += t;
            raw_lat.push(slice_lat);
        }
    });

    let mut metrics = Metrics::default();
    let samples = vec![
        ("setup_cycles", setup.len()),
        ("latency", raw_lat.iter().map(Vec::len).sum()),
        ("latency_slices", raw_lat.len()),
        ("calibration_slices", cal_rates.len()),
    ];
    let lat = Measured {
        setup_s: setup,
        requests: completed,
        busy_s: slice_time,
        elems_per_request: MICRO_ELEMS as f64,
        slices: raw_lat,
        cal_rates,
        cal_s: cal_time,
        cal_p99_us: cal_p99,
        ref_rate: REF_PINGPONG_PER_S,
        ref_p99_us: REF_PINGPONG_P99_US,
    }
    .put(&mut metrics);
    totals.put(&mut metrics, &mut submit_ns, &mut wait_us);
    eprintln!(
        "micro: {completed} requests of {MICRO_ELEMS} i32, window {WINDOW}: {:.0} req/s, \
         p50 {:.1} us, p99 {:.1} us ({} samples); ping-pong {:.0}/s; \
         sum-lane coalescing {:.1}",
        metrics.get("raw.req_per_s").unwrap_or(0.0),
        lat.p50,
        lat.p99,
        lat.n,
        metrics.get("calib.rate").unwrap_or(0.0),
        metrics.get("service.coalescing_factor").unwrap_or(0.0)
    );
    Outcome {
        metrics,
        tally,
        samples,
    }
}

/// `ScanService::metrics()` accounting summed over service instances.
#[derive(Default)]
pub struct ServiceTotals {
    batches: u64,
    sum_lane: (u64, u64),
    requests: u64,
    queue_us: u64,
    exec_us: u64,
}

impl ServiceTotals {
    pub fn add(&mut self, snapshot: &sam_service::ServiceMetrics) {
        self.batches += snapshot.batches;
        if let Some(lane) = snapshot.lanes.get("sum") {
            self.sum_lane.0 += lane.requests;
            self.sum_lane.1 += lane.batches;
        }
        for t in snapshot.tenants.values() {
            self.requests += t.requests;
            self.queue_us += t.queue_wait_us;
            self.exec_us += t.exec_us;
        }
    }

    /// The `service.*` layer metrics: call timings taken around `submit`
    /// and `wait` (traced passes only), and the service's own accounting.
    /// The coalescing factor is the Sum lane's, the only lane that fuses.
    pub fn put(&self, metrics: &mut Metrics, submit_ns: &mut [f64], wait_us: &mut [f64]) {
        let per_request = |total: u64| total as f64 / self.requests.max(1) as f64;
        if !submit_ns.is_empty() {
            metrics.put("service.submit_ns_p50", median(submit_ns), "ns");
        }
        if !wait_us.is_empty() {
            metrics.put("service.wait_us_p50", median(wait_us), "us");
        }
        metrics.put("service.batches", self.batches as f64, "count");
        metrics.put(
            "service.coalescing_factor",
            self.sum_lane.0 as f64 / self.sum_lane.1.max(1) as f64,
            "ratio",
        );
        metrics.put(
            "service.queue_wait_us_mean",
            per_request(self.queue_us),
            "us",
        );
        metrics.put("service.exec_us_mean", per_request(self.exec_us), "us");
    }
}
