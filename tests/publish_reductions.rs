//! The multi-worker engine's publish reductions against the rotating
//! reference loops, on every kernel family the running CPU has.
//!
//! `simd::sum_totals` (stride-1 sum totals as a vector column cascade plus
//! a basis change) and `simd::linrec_totals` (stride-1 recurrence totals
//! as dot products against an `ImpulseTable`) take their `Isa` explicitly,
//! so one process drives each family. Where a family has no reduction the
//! entry point must decline and leave the state untouched; where it has
//! one, the state must match `reference::{cascade_totals, linrec_totals}`
//! bit for bit — for zero and non-zero seeds, for lengths around one
//! vector of columns and around the engine's chunk size, and for 8-, 4- and
//! 1-byte elements. The same grid then runs through the operators'
//! `cascade_totals` / `publish_totals` dispatch.

use sam_core::chunk_kernel::{reference, ChunkKernel, ImpulseTable};
use sam_core::isa::{self, Isa};
use sam_core::op::{LinRec, Sum};
use sam_core::{simd, ScanElement};

/// SplitMix64: a small deterministic generator for inputs and seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Full-range values, so every width wraps many times over a span.
fn values<T: ScanElement>(rng: &mut Rng, n: usize) -> Vec<T> {
    (0..n).map(|_| T::from_u64_wrapping(rng.next())).collect()
}

/// Columns of one vector of `T` lanes on `isa` (the reduction width `W`);
/// 8 for the families without a reduction, whose lengths only need to be
/// varied.
fn columns<T>(isa: Isa) -> usize {
    let bytes = std::mem::size_of::<T>();
    match isa {
        Isa::Avx512 => 64 / bytes,
        Isa::Avx2 => 32 / bytes,
        _ => 8,
    }
}

/// `{0, 1, W - 1, W, W + 1, 1023, 4097, 32768, 32771}`.
fn lengths(w: usize) -> [usize; 9] {
    [0, 1, w - 1, w, w + 1, 1023, 4097, 32768, 32771]
}

/// Longest span of the grid; the impulse tables cover it.
const TABLE_SPAN: usize = 32771;

fn sum_grid<T: ScanElement>(seed: u64) {
    let mut rng = Rng(seed);
    for isa in isa::available() {
        for q in 1..=9usize {
            for n in lengths(columns::<T>(isa)) {
                let src: Vec<T> = values(&mut rng, n);
                for seeded in [false, true] {
                    let init: Vec<T> = if seeded {
                        values(&mut rng, q)
                    } else {
                        vec![T::ZERO; q]
                    };
                    let mut expect = init.clone();
                    reference::cascade_totals(&Sum, &src, 0, 1, &mut expect);
                    let label = format!("{isa} q={q} n={n} seeded={seeded}");

                    let mut got = init.clone();
                    if simd::sum_totals(isa, &src, &mut got) {
                        assert_eq!(got, expect, "sum_totals {label}");
                    } else {
                        assert_eq!(got, init, "declining sum_totals wrote the state {label}");
                    }
                    let mut got = init.clone();
                    Sum.cascade_totals(&src, 0, 1, &mut got);
                    assert_eq!(got, expect, "Sum::cascade_totals {label}");
                }
            }
        }
    }
}

fn linrec_grid<T: ScanElement>(seed: u64) {
    let mut rng = Rng(seed);
    for q in 1..=9usize {
        let coeffs: Vec<T> = values(&mut rng, q);
        let op = LinRec::new(coeffs.clone()).expect("wrapping integers are exact rings");
        let mut table = ImpulseTable::default();
        assert!(table.prepare(&coeffs, TABLE_SPAN), "a fresh table is built");
        assert!(
            !table.prepare(&coeffs, TABLE_SPAN),
            "a prepared table is kept"
        );
        assert_eq!(table.rev().len(), TABLE_SPAN + q - 1);
        // What the engine prepares: only where a reduction can run.
        let mut engine_table = ImpulseTable::default();
        op.prepare_publish(&mut engine_table, TABLE_SPAN, 1);
        for isa in isa::available() {
            for n in lengths(columns::<T>(isa)) {
                let src: Vec<T> = values(&mut rng, n);
                for seeded in [false, true] {
                    let init: Vec<T> = if seeded {
                        values(&mut rng, q)
                    } else {
                        vec![T::ZERO; q]
                    };
                    let mut expect = init.clone();
                    reference::linrec_totals(&coeffs, &src, 0, 1, &mut expect);
                    let label = format!("{isa} q={q} n={n} seeded={seeded}");

                    let mut got = init.clone();
                    if simd::linrec_totals(isa, &coeffs, table.rev(), &src, &mut got) {
                        assert_eq!(got, expect, "linrec_totals {label}");
                    } else {
                        assert_eq!(got, init, "declining linrec_totals wrote the state {label}");
                    }
                    let mut got = init.clone();
                    op.publish_totals(&src, 0, 1, &mut got, &engine_table);
                    assert_eq!(got, expect, "LinRec::publish_totals {label}");
                }
            }
        }
    }
}

#[test]
fn sum_reductions_match_reference_i64() {
    sum_grid::<i64>(1);
}

#[test]
fn sum_reductions_match_reference_u32() {
    sum_grid::<u32>(2);
}

#[test]
fn sum_reductions_match_reference_u8() {
    sum_grid::<u8>(3);
}

#[test]
fn linrec_reductions_match_reference_i64() {
    linrec_grid::<i64>(4);
}

#[test]
fn linrec_reductions_match_reference_u32() {
    linrec_grid::<u32>(5);
}

#[test]
fn linrec_reductions_match_reference_u8() {
    linrec_grid::<u8>(6);
}

/// A table reads correctly at any offset (spans shorter than its chunk),
/// is rejected when too short for the span or built for other
/// coefficients, and is rebuilt only when the coefficients or the chunk
/// length change.
#[test]
fn impulse_tables_cover_shorter_spans_only() {
    let mut rng = Rng(7);
    let coeffs: Vec<i64> = values(&mut rng, 3);
    let op = LinRec::new(coeffs.clone()).expect("i64 is an exact ring");
    let mut table = ImpulseTable::default();
    table.prepare(&coeffs, 4096);
    for isa in isa::available() {
        for n in [512usize, 1000, 4095, 4096] {
            let src: Vec<i64> = values(&mut rng, n);
            let mut expect = vec![0i64; 3];
            reference::linrec_totals(&coeffs, &src, 0, 1, &mut expect);
            let mut got = vec![0i64; 3];
            if simd::linrec_totals(isa, &coeffs, table.rev(), &src, &mut got) {
                assert_eq!(got, expect, "{isa} n={n}");
            }
        }
        let long: Vec<i64> = values(&mut rng, 4097);
        let mut state = vec![0i64; 3];
        assert!(
            !simd::linrec_totals(isa, &coeffs, table.rev(), &long, &mut state),
            "{isa}: span past the table"
        );
        let other: Vec<i64> = values(&mut rng, 3);
        let mut expect = vec![0i64; 3];
        reference::linrec_totals(&other, &long[..1000], 0, 1, &mut expect);
        let other_op = LinRec::new(other.clone()).expect("i64 is an exact ring");
        let mut got = vec![0i64; 3];
        other_op.publish_totals(&long[..1000], 0, 1, &mut got, &table);
        assert_eq!(
            got, expect,
            "{isa}: a table of other coefficients is not used"
        );
    }
    assert!(!table.prepare(&coeffs, 4096));
    assert!(table.prepare(&coeffs, 2048), "new chunk length");
    assert!(table.is_for(&coeffs));
    let mut seeded = vec![5i64, -7, 11];
    let mut expect = seeded.clone();
    let src: Vec<i64> = values(&mut rng, 2048);
    reference::linrec_totals(&coeffs, &src, 0, 1, &mut expect);
    op.publish_totals(&src, 0, 1, &mut seeded, &table);
    assert_eq!(seeded, expect, "seeded publish sweep");
}
