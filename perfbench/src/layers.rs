//! Per-layer probes of `sam_core`, run in every traced invocation: each
//! times one public entry point in isolation, so a change to that layer
//! shows here even when an end-to-end metric hides it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sam_core::cpu::CpuScanner;
use sam_core::op::Sum;
use sam_core::plan::{PlanHint, ScanPlan};
use sam_core::segmented::{try_feed_segmented_into, SegmentedOp};
use sam_core::{Engine, ScanSpec};

use crate::bulk::{self, BULK_N, SHAPES};
use crate::common::{median, secs, Metrics, Rng, Tally};
use crate::micro::{MICRO_ELEMS, WINDOW};

/// L2-resident kernel size: 2^17 `i64` is 1 MiB per array.
const KERNEL_N: usize = 1 << 17;
const KERNEL_TIME: Duration = Duration::from_millis(250);
/// Repetitions of each 2^26 timing (median reported).
const BIG_REPS: usize = 3;
const PLAN_BUILDS: usize = 200;
const SEGMENTED_TIME: Duration = Duration::from_millis(250);

/// Median seconds per call of `f`, called repeatedly for at least `dur`.
fn time_for(dur: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < dur || samples.len() < 5 {
        let t0 = Instant::now();
        f();
        samples.push(secs(t0.elapsed()));
    }
    median(&mut samples)
}

/// Median seconds of `reps` calls of `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            secs(t0.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// `sam_core::simd` / `chunk_kernel` through `serial::scan_into` at an
/// L2-resident size.
pub fn kernels(seed: u64, metrics: &mut Metrics, tally: &mut Tally) {
    let src = bulk::input(seed, KERNEL_N);
    let mut out = src.clone();
    for shape in &SHAPES {
        let per_call = time_for(KERNEL_TIME, || shape.serial_into(black_box(&src), &mut out));
        check(tally, shape, &src, &out, "kernel");
        metrics.put(
            format!("kernel.{}.elems_per_s", shape.name),
            KERNEL_N as f64 / per_call,
            "elems/s",
        );
    }
}

/// `sam_core::cpu` and `sam_core::plan` at 2^26: the CPU engine against
/// the serial engine, the traced carry-wait share, and (unless the
/// workload measured it already) each spec's session rate against memcpy.
pub fn cpu_and_plan(seed: u64, metrics: &mut Metrics, tally: &mut Tally) {
    let src = bulk::input(seed, BULK_N);
    let mut out = src.clone();
    let cpu = CpuScanner::default();
    for shape in &SHAPES {
        let serial = time_reps(BIG_REPS, || shape.serial_into(black_box(&src), &mut out));
        let parallel = time_reps(BIG_REPS, || shape.cpu_into(&cpu, black_box(&src), &mut out));
        check(tally, shape, &src, &out, "cpu");
        metrics.put(
            format!("cpu.{}.speedup_vs_serial", shape.name),
            serial / parallel,
            "ratio",
        );

        let traced = ScanPlan::new(
            shape.spec(),
            Engine::auto(),
            PlanHint::default().with_trace(),
        );
        let session = shape.session(&traced);
        session.scan_into(&src, &mut out);
        session.scan_into(&src, &mut out);
        let wait = traced
            .last_report()
            .map_or(0.0, |r| r.carry_wait_fraction());
        metrics.put(format!("cpu.{}.carry_wait_frac", shape.name), wait, "ratio");

        let name = format!("plan.{}.roof_frac", shape.name);
        if metrics.get(&name).is_none() {
            let plan = ScanPlan::new(shape.spec(), Engine::auto(), PlanHint::default());
            let session = shape.session(&plan);
            let scan = time_reps(BIG_REPS, || session.scan_into(black_box(&src), &mut out));
            let copy = time_reps(BIG_REPS, || out.copy_from_slice(black_box(&src)));
            metrics.put(name, copy / scan, "ratio");
        }
    }
}

/// `ScanPlan::new` for the four bulk specs, per plan.
pub fn plan_build(metrics: &mut Metrics) {
    let mut samples = Vec::with_capacity(PLAN_BUILDS * SHAPES.len());
    for _ in 0..PLAN_BUILDS {
        for shape in &SHAPES {
            let t0 = Instant::now();
            let plan = ScanPlan::new(shape.spec(), Engine::auto(), PlanHint::default());
            samples.push(secs(t0.elapsed()) * 1e6);
            drop(black_box(plan));
        }
    }
    metrics.put("plan.build_us", median(&mut samples), "us");
}

/// `sam_core::segmented::try_feed_segmented_into` on one fused batch of
/// the micro workload's shape: 256 requests of 32 elements, a head at
/// every request start plus sparse heads inside.
pub fn segmented(seed: u64, metrics: &mut Metrics, tally: &mut Tally) {
    let n = WINDOW * MICRO_ELEMS;
    let mut rng = Rng::new(seed, "segmented");
    let values: Vec<i32> = (0..n).map(|_| rng.signed(1000) as i32).collect();
    let heads: Vec<bool> = (0..n)
        .map(|i| i % MICRO_ELEMS == 0 || rng.one_in(16))
        .collect();
    let plan = ScanPlan::new(ScanSpec::inclusive(), Engine::auto(), PlanHint::default());
    let mut session = plan.session(SegmentedOp::new(Sum));
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    let mut failed = false;
    let per_call = time_for(SEGMENTED_TIME, || {
        failed |=
            try_feed_segmented_into(&mut session, &values, &heads, &mut scratch, &mut out).is_err();
    });
    let mut run = 0i32;
    let want: Vec<i32> = values
        .iter()
        .zip(&heads)
        .map(|(&v, &h)| {
            run = if h { v } else { run.wrapping_add(v) };
            run
        })
        .collect();
    if failed {
        tally.fail(|| "segmented feed refused a well-formed batch".to_string());
    } else {
        tally.check("segmented", &out, &want);
    }
    metrics.put(
        "segmented.feed_ns_per_elem",
        per_call * 1e9 / n as f64,
        "ns",
    );
}

fn check(tally: &mut Tally, shape: &bulk::Shape, src: &[i64], out: &[i64], what: &str) {
    match shape.first_mismatch(src, out) {
        None => tally.ok(),
        Some(at) => tally.fail(|| {
            format!(
                "{what} {}: output differs from the oracle at {at}",
                shape.name
            )
        }),
    }
}
