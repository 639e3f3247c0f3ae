//! Register-window cascade kernels against the rotating reference loops.
//!
//! `Sum` and `LinRec` dispatch their `cascade_*` methods to const-shape
//! kernels that hold the cascade window in local arrays: stride-1 orders
//! `1..=8`, and `(q, s)` row sweeps for small tuples. The rotating-lane
//! loops in `sam_core::chunk_kernel::reference` stay the fallback for
//! every other shape and are the oracle here. The grid covers both sides
//! of the dispatch boundaries (recurrence order 9, tuple 9, 1-byte
//! elements, unaligned bases), all
//! three sweeps (from, in place, totals), both scan kinds, three element
//! widths, short and ragged tails, and spans split at random offsets and
//! resumed from the state the previous span returned.

use sam_core::chunk_kernel::{reference, ChunkKernel};
use sam_core::op::{LinRec, Sum};
use sam_core::ScanElement;

const STRIDES: [usize; 5] = [1, 2, 5, 8, 9];
const SUM_ORDERS: [usize; 4] = [1, 2, 5, 8];

/// SplitMix64: a small deterministic generator for inputs and split points.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Full-range values, so every width wraps many times over a span.
fn input<T: ScanElement>(rng: &mut Rng, n: usize) -> Vec<T> {
    (0..n).map(|_| T::from_u64_wrapping(rng.next())).collect()
}

/// Span lengths around every row boundary of stride `s`: empty, shorter
/// than one row, each residue just past a whole number of rows, and a
/// longer span with a random tail.
fn lengths(rng: &mut Rng, s: usize) -> Vec<usize> {
    let mut ns = vec![
        0,
        1,
        s.saturating_sub(1),
        s,
        s + 1,
        2 * s - 1,
        7 * s + s / 2,
    ];
    ns.push(64 * s + rng.below(s));
    ns.push(333 + rng.below(3 * s));
    ns
}

/// Up to three split points: random lane-aligned offsets (the engines'
/// chunk bases), plus one unaligned offset when `unaligned`.
fn splits(rng: &mut Rng, n: usize, s: usize, unaligned: bool) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..2).map(|_| rng.below(n / s + 1) * s).collect();
    if unaligned {
        cuts.push(rng.below(n + 1));
    }
    cuts.sort_unstable();
    cuts
}

/// Runs `from`, `in_place` and `totals` of `op` over `src` split at
/// `cuts`, each span resuming from the state the previous one returned,
/// and returns `(from outputs, in-place outputs, final states)`.
fn run_split<T: ScanElement, Op: ChunkKernel<T>>(
    op: &Op,
    src: &[T],
    s: usize,
    q: usize,
    exclusive: bool,
    cuts: &[usize],
) -> (Vec<T>, Vec<T>, [Vec<T>; 3]) {
    let mut from = vec![T::ZERO; src.len()];
    let mut in_place = src.to_vec();
    let mut states = [
        vec![T::ZERO; q * s],
        vec![T::ZERO; q * s],
        vec![T::ZERO; q * s],
    ];
    let mut bounds = vec![0];
    bounds.extend_from_slice(cuts);
    bounds.push(src.len());
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        op.cascade_scan_from(
            &src[lo..hi],
            &mut from[lo..hi],
            lo,
            s,
            &mut states[0],
            exclusive,
        );
        op.cascade_scan_in_place(&mut in_place[lo..hi], lo, s, &mut states[1], exclusive);
        op.cascade_totals(&src[lo..hi], lo, s, &mut states[2]);
    }
    (from, in_place, states)
}

/// The three reference sweeps over the whole of `src` in one span.
struct Expected<T> {
    out: Vec<T>,
    /// State after the from/in-place sweep (kind-independent, but computed
    /// per kind to check it).
    state: Vec<T>,
    /// State after the totals-only sweep.
    totals: Vec<T>,
    /// In-place reference outputs.
    in_place: Vec<T>,
}

fn check<T: ScanElement + std::fmt::Debug>(
    got: (Vec<T>, Vec<T>, [Vec<T>; 3]),
    expect: &Expected<T>,
    label: &str,
) {
    let (from, in_place, [st_from, st_in_place, st_totals]) = got;
    assert_eq!(from, expect.out, "from outputs {label}");
    assert_eq!(in_place, expect.in_place, "in-place outputs {label}");
    assert_eq!(st_from, expect.state, "from state {label}");
    assert_eq!(st_in_place, expect.state, "in-place state {label}");
    assert_eq!(st_totals, expect.totals, "totals state {label}");
}

fn sum_grid<T: ScanElement + std::fmt::Debug>(seed: u64) {
    let mut rng = Rng(seed);
    for s in STRIDES {
        for q in SUM_ORDERS {
            for n in lengths(&mut rng, s) {
                let src: Vec<T> = input(&mut rng, n);
                for exclusive in [false, true] {
                    let mut out = vec![T::ZERO; n];
                    let mut state = vec![T::ZERO; q * s];
                    reference::cascade_from(&Sum, &src, &mut out, 0, s, &mut state, exclusive);
                    let mut in_place = src.clone();
                    let mut state2 = vec![T::ZERO; q * s];
                    reference::cascade_in_place(&Sum, &mut in_place, 0, s, &mut state2, exclusive);
                    assert_eq!(state2, state);
                    let mut totals = vec![T::ZERO; q * s];
                    reference::cascade_totals(&Sum, &src, 0, s, &mut totals);
                    let expect = Expected {
                        out,
                        state,
                        totals,
                        in_place,
                    };

                    let label = format!("sum q={q} s={s} n={n} exc={exclusive}");
                    check(run_split(&Sum, &src, s, q, exclusive, &[]), &expect, &label);
                    for unaligned in [false, true] {
                        let cuts = splits(&mut rng, n, s, unaligned);
                        let label = format!("{label} cuts={cuts:?}");
                        check(
                            run_split(&Sum, &src, s, q, exclusive, &cuts),
                            &expect,
                            &label,
                        );
                    }
                }
            }
        }
    }
}

fn linrec_grid<T: ScanElement + std::fmt::Debug>(seed: u64) {
    let mut rng = Rng(seed);
    for s in STRIDES {
        for q in 1..=9usize {
            let coeffs: Vec<T> = input(&mut rng, q);
            let op = LinRec::new(coeffs.clone()).expect("wrapping integers are exact rings");
            for n in lengths(&mut rng, s) {
                let src: Vec<T> = input(&mut rng, n);
                for exclusive in [false, true] {
                    let mut out = vec![T::ZERO; n];
                    let mut state = vec![T::ZERO; q * s];
                    reference::linrec_from(&coeffs, &src, &mut out, 0, s, &mut state, exclusive);
                    let mut in_place = src.clone();
                    let mut state2 = vec![T::ZERO; q * s];
                    reference::linrec_in_place(
                        &coeffs,
                        &mut in_place,
                        0,
                        s,
                        &mut state2,
                        exclusive,
                    );
                    assert_eq!(state2, state);
                    let mut totals = vec![T::ZERO; q * s];
                    reference::linrec_totals(&coeffs, &src, 0, s, &mut totals);
                    let expect = Expected {
                        out,
                        state,
                        totals,
                        in_place,
                    };

                    let label = format!("linrec q={q} s={s} n={n} exc={exclusive}");
                    check(run_split(&op, &src, s, q, exclusive, &[]), &expect, &label);
                    for unaligned in [false, true] {
                        let cuts = splits(&mut rng, n, s, unaligned);
                        let label = format!("{label} cuts={cuts:?}");
                        check(
                            run_split(&op, &src, s, q, exclusive, &cuts),
                            &expect,
                            &label,
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn sum_register_windows_match_reference_i64() {
    sum_grid::<i64>(1);
}

#[test]
fn sum_register_windows_match_reference_u32() {
    sum_grid::<u32>(2);
}

#[test]
fn sum_register_windows_match_reference_u8() {
    sum_grid::<u8>(3);
}

#[test]
fn linrec_register_windows_match_reference_i64() {
    linrec_grid::<i64>(4);
}

#[test]
fn linrec_register_windows_match_reference_u32() {
    linrec_grid::<u32>(5);
}

#[test]
fn linrec_register_windows_match_reference_u8() {
    linrec_grid::<u8>(6);
}

/// A seeded window (as a later chunk receives from the carry round) is
/// honoured exactly: resuming from an arbitrary non-zero state matches the
/// reference resumed from the same state.
#[test]
fn register_windows_honour_arbitrary_seeds() {
    let mut rng = Rng(7);
    for s in STRIDES {
        for q in 1..=9usize {
            let n = 100 * s + rng.below(s);
            let src: Vec<i64> = input(&mut rng, n);
            let seed: Vec<i64> = input(&mut rng, q * s);
            let coeffs: Vec<i64> = input(&mut rng, q);
            let op = LinRec::new(coeffs.clone()).expect("i64 is an exact ring");
            for exclusive in [false, true] {
                let mut expect = vec![0i64; n];
                let mut expect_state = seed.clone();
                reference::cascade_from(
                    &Sum,
                    &src,
                    &mut expect,
                    0,
                    s,
                    &mut expect_state,
                    exclusive,
                );
                let mut got = vec![0i64; n];
                let mut state = seed.clone();
                Sum.cascade_scan_from(&src, &mut got, 0, s, &mut state, exclusive);
                assert_eq!((got, state), (expect, expect_state), "sum q={q} s={s}");

                let mut expect = vec![0i64; n];
                let mut expect_state = seed.clone();
                reference::linrec_from(
                    &coeffs,
                    &src,
                    &mut expect,
                    0,
                    s,
                    &mut expect_state,
                    exclusive,
                );
                let mut got = vec![0i64; n];
                let mut state = seed.clone();
                op.cascade_scan_from(&src, &mut got, 0, s, &mut state, exclusive);
                assert_eq!((got, state), (expect, expect_state), "linrec q={q} s={s}");
            }
        }
    }
}
