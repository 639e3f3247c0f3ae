//! The multi-worker cascade engine's streamed output sweep against the
//! serial oracle.
//!
//! Past the non-temporal store threshold, `CpuScanner` scans each chunk in
//! lane-aligned blocks through a bounce buffer, copies them out with
//! full-line streaming stores, and prefetches the next chunk of the same
//! worker. Forcing the threshold down to one byte with
//! `simd::nt_store_override` puts small scans on that path, so the grid
//! covers what large scans rarely show: chunk sizes that are multiples of
//! neither the vector width nor the bounce block, outputs that start
//! mid-line, last chunks shorter than a block, and both operator families
//! and scan kinds. On hosts without streaming stores the same scans take
//! the direct sweep and must agree all the same.

use gpu_sim::sched::{SchedPolicy, Scheduler};
use sam_core::cpu::CpuScanner;
use sam_core::op::{LinRec, Sum};
use sam_core::{serial, simd, ScanSpec};
use std::sync::Arc;

fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64) - (1 << 30)
        })
        .collect()
}

fn spec(order: u32, tuple: usize, exclusive: bool) -> ScanSpec {
    let base = if exclusive {
        ScanSpec::exclusive()
    } else {
        ScanSpec::inclusive()
    };
    base.with_order(order).unwrap().with_tuple(tuple).unwrap()
}

/// Chunk sizes that are multiples of neither the sweep's blocks (64 rows,
/// at most 512 elements) nor the 4/8/16-lane vector widths.
const CHUNKS: [usize; 4] = [517, 1003, 1541, 2050];

/// Scans `input` into a buffer starting `shift` elements past a fresh
/// allocation, so the output's first line is partial for `shift > 0`.
fn scan_shifted<Op>(
    scanner: &CpuScanner,
    input: &[i64],
    op: &Op,
    spec: &ScanSpec,
    shift: usize,
) -> Vec<i64>
where
    Op: sam_core::ChunkKernel<i64>,
{
    let mut buf = vec![0i64; input.len() + shift];
    scanner.scan_into(input, &mut buf[shift..], op, spec);
    buf.split_off(shift)
}

#[test]
fn streamed_sum_cascades_match_serial() {
    let _stream = simd::nt_store_override(1);
    let input = pseudo_random(12_345, 1);
    for s in [1usize, 2, 5, 8] {
        for order in [2u32, 3, 8] {
            for exclusive in [false, true] {
                let spec = spec(order, s, exclusive);
                let expect = serial::scan(&input, &Sum, &spec);
                for (i, chunk) in CHUNKS.into_iter().enumerate() {
                    let workers = 2 + i % 2;
                    let scanner = CpuScanner::new(workers).with_chunk_elems(chunk);
                    let got = scan_shifted(&scanner, &input, &Sum, &spec, i % 3);
                    assert_eq!(
                        got, expect,
                        "s={s} q={order} exc={exclusive} chunk={chunk} workers={workers}"
                    );
                }
            }
        }
    }
}

#[test]
fn streamed_recurrences_match_serial() {
    let _stream = simd::nt_store_override(1);
    let input = pseudo_random(12_345, 2);
    for s in [1usize, 2, 5, 8] {
        for coeffs in [vec![3i64, -1], vec![1, 1, -2, 5, 7]] {
            let op = LinRec::new(coeffs.clone()).expect("i64 is an exact ring");
            for exclusive in [false, true] {
                let spec = spec(coeffs.len() as u32, s, exclusive);
                let expect = serial::scan(&input, &op, &spec);
                for (i, chunk) in CHUNKS.into_iter().enumerate() {
                    let workers = 3 - i % 2;
                    let scanner = CpuScanner::new(workers).with_chunk_elems(chunk);
                    let got = scan_shifted(&scanner, &input, &op, &spec, (i + 1) % 3);
                    assert_eq!(
                        got, expect,
                        "s={s} coeffs={coeffs:?} exc={exclusive} chunk={chunk}"
                    );
                }
            }
        }
    }
}

/// The streamed sweep under the adversarial scheduler preset: workers
/// start in reverse and stall at random, so chunks finish far out of
/// order; the last chunk (shorter than a block) and the next-chunk
/// prefetch of every worker's final chunk, which has no next chunk, are
/// both on the path.
#[test]
fn streamed_sweep_survives_a_hostile_schedule() {
    let _stream = simd::nt_store_override(1);
    let input = pseudo_random(9_001, 3);
    let rec = LinRec::new(vec![2i64, -1]).expect("i64 is an exact ring");
    for (order, s, exclusive) in [(2u32, 1usize, false), (3, 5, true)] {
        let spec = spec(order, s, exclusive);
        let sched = Arc::new(Scheduler::new(SchedPolicy::hostile(41)));
        let scanner = CpuScanner::new(3)
            .with_chunk_elems(1003)
            .with_scheduler(sched);
        assert_eq!(
            scanner.scan(&input, &Sum, &spec),
            serial::scan(&input, &Sum, &spec),
            "sum {spec:?}"
        );
        let spec = self::spec(2, s, exclusive);
        assert_eq!(
            scanner.scan(&input, &rec, &spec),
            serial::scan(&input, &rec, &spec),
            "rec {spec:?}"
        );
    }
}
