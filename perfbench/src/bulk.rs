//! `bulk`: one-shot plan/session scans of 2^26 `i64` under `Engine::auto()`,
//! round-robining four specs, each scan followed by a memcpy over the same
//! buffers as the interleaved calibration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Sum};
use sam_core::plan::{PlanHint, ScanPlan, ScanSession};
use sam_core::{serial, Engine, ScanSpec};

use crate::common::{secs, summarize, Measured, Metrics, Outcome, Rng, Tally};
use crate::trace::{SpanId, Tracer};

/// 2^26 `i64`: 512 MiB per array, several times the last-level cache.
pub const BULK_N: usize = 1 << 26;

/// Copy bandwidth (i64 elements/s, `copy_from_slice` at 2^26) of the
/// reference host; see README.md.
pub const REF_MEMCPY_ELEMS_PER_S: f64 = 9.2e8;

/// Rounds between set-up cycles, which are spread through the run so
/// their median sees the same host states as the rounds.
const SETUP_EVERY: usize = 2;

/// One of the four scan shapes the workload mixes.
#[derive(Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub order: u32,
    pub tuple: usize,
    /// Linear-recurrence coefficients; empty for a plain sum.
    pub coeffs: &'static [i64],
}

pub const SHAPES: [Shape; 4] = [
    // The memcpy-roof case.
    Shape {
        name: "sum_o1t1",
        order: 1,
        tuple: 1,
        coeffs: &[],
    },
    // Higher order.
    Shape {
        name: "sum_o8t1",
        order: 8,
        tuple: 1,
        coeffs: &[],
    },
    // Tuple-based.
    Shape {
        name: "sum_o2t5",
        order: 2,
        tuple: 5,
        coeffs: &[],
    },
    // Recurrence carry: x_i = b_i + 3 x_{i-1} - x_{i-2}.
    Shape {
        name: "linrec2",
        order: 2,
        tuple: 1,
        coeffs: &[3, -1],
    },
];

impl Shape {
    pub fn spec(&self) -> ScanSpec {
        ScanSpec::inclusive()
            .with_order(self.order)
            .expect("order within the supported range")
            .with_tuple(self.tuple)
            .expect("tuple within the supported range")
    }

    fn linrec(&self) -> LinRec<i64> {
        LinRec::new(self.coeffs.to_vec()).expect("i64 is an exact ring")
    }

    pub fn session(&self, plan: &ScanPlan) -> Session {
        if self.coeffs.is_empty() {
            Session::Sum(plan.session(Sum))
        } else {
            Session::Rec(plan.session(self.linrec()))
        }
    }

    /// `sam_core::serial::scan_into` with this shape's operator.
    pub fn serial_into(&self, src: &[i64], out: &mut [i64]) {
        if self.coeffs.is_empty() {
            serial::scan_into(src, out, &Sum, &self.spec());
        } else {
            serial::scan_into(src, out, &self.linrec(), &self.spec());
        }
    }

    /// `CpuScanner::scan_into` with this shape's operator.
    pub fn cpu_into(&self, cpu: &CpuScanner, src: &[i64], out: &mut [i64]) {
        if self.coeffs.is_empty() {
            cpu.scan_into(src, out, &Sum, &self.spec());
        } else {
            cpu.scan_into(src, out, &self.linrec(), &self.spec());
        }
    }

    /// Index of the first element of `out` that differs from an
    /// independent streaming loop over `src`, if any.
    pub fn first_mismatch(&self, src: &[i64], out: &[i64]) -> Option<usize> {
        if src.len() != out.len() {
            return Some(0);
        }
        if !self.coeffs.is_empty() {
            let (mut h1, mut h2) = (0i64, 0i64);
            for (i, (&b, &o)) in src.iter().zip(out).enumerate() {
                let y = self
                    .coeffs
                    .iter()
                    .zip([h1, h2])
                    .fold(b, |acc, (&c, h)| acc.wrapping_add(c.wrapping_mul(h)));
                if y != o {
                    return Some(i);
                }
                (h2, h1) = (h1, y);
            }
            return None;
        }
        // Order q, tuple s: q running sums per lane, lane = i mod s.
        let (q, s) = (self.order as usize, self.tuple);
        let mut acc = vec![0i64; q * s];
        for (i, (&x, &o)) in src.iter().zip(out).enumerate() {
            let lane = &mut acc[(i % s) * q..(i % s + 1) * q];
            let mut v = x;
            for a in lane.iter_mut() {
                *a = a.wrapping_add(v);
                v = *a;
            }
            if v != o {
                return Some(i);
            }
        }
        None
    }
}

pub enum Session {
    Sum(ScanSession<i64, Sum>),
    Rec(ScanSession<i64, LinRec<i64>>),
}

impl Session {
    pub fn scan_into(&self, src: &[i64], out: &mut [i64]) {
        match self {
            Session::Sum(s) => s.scan_into(src, out),
            Session::Rec(s) => s.scan_into(src, out),
        }
    }
}

/// Seeded input: small signed values, so low orders stay exact and high
/// orders exercise wrapping.
pub fn input(seed: u64, n: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed, "bulk");
    (0..n).map(|_| rng.signed(1000)).collect()
}

/// One set-up cycle: plans and sessions for the four specs plus one first
/// scan each. Returns the sessions; appends the cycle's seconds.
fn setup_cycle(
    src: &[i64],
    out: &mut [i64],
    setup: &mut Vec<f64>,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Session> {
    let span = tracer.open("bulk.setup", SpanId::NONE, setup.len() as u64);
    let t0 = Instant::now();
    let sessions: Vec<Session> = SHAPES
        .iter()
        .map(|shape| {
            shape.session(&ScanPlan::new(
                shape.spec(),
                Engine::auto(),
                PlanHint::default(),
            ))
        })
        .collect();
    for session in &sessions {
        session.scan_into(black_box(src), out);
        tally.ok();
    }
    setup.push(secs(t0.elapsed()));
    tracer.close(span);
    sessions
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let src = input(seed, BULK_N);
    // Fault the output pages in now: input generation is not set-up.
    let mut out = src.clone();
    let mut tally = Tally::default();

    let mut setup = Vec::new();
    let mut sessions = setup_cycle(&src, &mut out, &mut setup, &mut tally, tracer);
    let mut checked = [false; 4];
    let mut scan_time = [Duration::ZERO; 4];
    let mut scans = [0u64; 4];
    let (mut copy_rates, mut copy_us, mut copy_s) = (Vec::new(), Vec::new(), 0.0);
    let mut rounds = Vec::new();
    let start = Instant::now();
    while secs(start.elapsed()) < seconds || rounds.len() < 2 {
        let round_id = rounds.len() as u64;
        let round_span = tracer.open("bulk.round", SpanId::NONE, round_id);
        let mut round_scan = Duration::ZERO;
        for (i, session) in sessions.iter().enumerate() {
            let span = tracer.open(SCAN_SPANS[i], round_span, round_id);
            let t0 = Instant::now();
            session.scan_into(black_box(&src), &mut out);
            let d = t0.elapsed();
            tracer.close(span);
            scan_time[i] += d;
            scans[i] += 1;
            round_scan += d;
            if !checked[i] {
                // Outside the timed slices: once per spec per run.
                let span = tracer.open("check.oracle", round_span, round_id);
                match SHAPES[i].first_mismatch(&src, &out) {
                    None => tally.ok(),
                    Some(at) => tally.fail(|| {
                        format!(
                            "bulk {}: output differs from the oracle at {at}",
                            SHAPES[i].name
                        )
                    }),
                }
                tracer.close(span);
                checked[i] = true;
            } else {
                tally.ok();
            }
            let span = tracer.open("calib.memcpy", round_span, round_id);
            let t0 = Instant::now();
            out.copy_from_slice(black_box(&src));
            let d = secs(t0.elapsed());
            tracer.close(span);
            black_box(&out);
            copy_rates.push(BULK_N as f64 / d);
            copy_us.push(d * 1e6);
            copy_s += d;
        }
        tracer.close(round_span);
        rounds.push(secs(round_scan) * 1e6);
        if rounds.len() % SETUP_EVERY == 0 {
            sessions = setup_cycle(&src, &mut out, &mut setup, &mut tally, tracer);
        }
    }

    let mut metrics = Metrics::default();
    let total_scan: f64 = scan_time.iter().map(|d| secs(*d)).sum();
    let samples = vec![
        ("setup_cycles", setup.len()),
        ("rounds", rounds.len()),
        ("scans", scans.iter().sum::<u64>() as usize),
        ("memcpy_slices", copy_rates.len()),
    ];
    let lat = Measured {
        setup_s: setup,
        requests: rounds.len() as u64,
        busy_s: total_scan,
        elems_per_request: (SHAPES.len() * BULK_N) as f64,
        // Too few rounds to split: the whole run is one slice.
        slices: vec![rounds],
        cal_rates: copy_rates,
        cal_s: copy_s,
        cal_p99_us: Vec::new(),
        ref_rate: REF_MEMCPY_ELEMS_PER_S,
        ref_p99_us: 0.0,
    }
    .put(&mut metrics);
    let copy_rate = metrics.get("calib.rate").expect("just measured");
    metrics.put("calib.p99_us", summarize(&mut copy_us).p99, "us");
    let raw = metrics.get("raw.elems_per_s").expect("just measured");
    for (i, shape) in SHAPES.iter().enumerate() {
        let rate = scans[i] as f64 * BULK_N as f64 / secs(scan_time[i]);
        metrics.put(
            format!("plan.{}.roof_frac", shape.name),
            rate / copy_rate,
            "ratio",
        );
    }
    eprintln!(
        "bulk: {} rounds of {} scans of 2^26 i64, {:.3e} elems/s = {:.3} of memcpy {:.3e}; \
         round p50 {:.0} us, p99 {:.0} us",
        lat.n,
        SHAPES.len(),
        raw,
        raw / copy_rate,
        copy_rate,
        lat.p50,
        lat.p99
    );
    Outcome {
        metrics,
        tally,
        samples,
    }
}

const SCAN_SPANS: [&str; 4] = [
    "session.scan_into.sum_o1t1",
    "session.scan_into.sum_o8t1",
    "session.scan_into.sum_o2t5",
    "session.scan_into.linrec2",
];
