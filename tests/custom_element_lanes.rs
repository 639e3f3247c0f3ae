//! A downstream element type can never reach the kernels that reinterpret
//! slices as raw integer lanes.
//!
//! `simd` and the register-window chunk kernels cast `&[T]` to `&[u64]` (or
//! the lane type of `T`'s width) and add with integer instructions, which
//! is only sound when `T` *is* a primitive wrapping integer. The gate is
//! `sam_core::element::is_wrapping_int`, a `TypeId` match that no
//! `ScanElement` implementation can opt into. `Gf2` here is the most
//! tempting forgery: an 8-byte `repr(transparent)` wrapper around `u64`
//! that claims exact associativity and exact multiples (it is the ring
//! `GF(2)^64`, with XOR as addition). If any path cast its slices to `u64`
//! lanes it would add instead of XOR, and the engines' outputs would stop
//! matching the XOR oracle below.

use sam_core::cpu::CpuScanner;
use sam_core::element::is_wrapping_int;
use sam_core::isa;
use sam_core::op::{LinRec, Sum};
use sam_core::{serial, simd, ScanElement, ScanSpec};

#[repr(transparent)]
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
struct Gf2(u64);

impl std::fmt::Display for Gf2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl gpu_sim::Pod64 for Gf2 {
    fn to_bits(self) -> u64 {
        self.0
    }
    fn from_bits(bits: u64) -> Self {
        Gf2(bits)
    }
}

impl ScanElement for Gf2 {
    const ZERO: Self = Gf2(0);
    const ONE: Self = Gf2(u64::MAX);
    const MIN_VALUE: Self = Gf2(0);
    const MAX_VALUE: Self = Gf2(u64::MAX);
    // XOR is exactly associative, and `w` XORs of `x` are `x` masked by
    // the parity of `w`: the carry algebra is exact over GF(2).
    const EXACT_ASSOC: bool = true;
    const EXACT_MUL: bool = true;

    fn add(self, other: Self) -> Self {
        Gf2(self.0 ^ other.0)
    }
    fn sub(self, other: Self) -> Self {
        Gf2(self.0 ^ other.0)
    }
    fn mul(self, other: Self) -> Self {
        Gf2(self.0 & other.0)
    }
    fn max_of(self, other: Self) -> Self {
        Gf2(self.0.max(other.0))
    }
    fn min_of(self, other: Self) -> Self {
        Gf2(self.0.min(other.0))
    }
    fn from_i64(v: i64) -> Self {
        Gf2(v as u64)
    }
    fn from_u64_wrapping(w: u64) -> Self {
        Gf2(if w & 1 == 1 { u64::MAX } else { 0 })
    }
}

fn values(n: usize, seed: u64) -> Vec<Gf2> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Gf2(state)
        })
        .collect()
}

/// Order-`q`, tuple-`s` inclusive or exclusive XOR scan, by definition.
fn xor_oracle(input: &[Gf2], q: usize, s: usize, exclusive: bool) -> Vec<Gf2> {
    let mut data: Vec<u64> = input.iter().map(|v| v.0).collect();
    for pass in 0..q {
        let last = pass + 1 == q;
        let mut acc = vec![0u64; s];
        for (i, v) in data.iter_mut().enumerate() {
            let before = acc[i % s];
            acc[i % s] ^= *v;
            *v = if last && exclusive {
                before
            } else {
                acc[i % s]
            };
        }
    }
    data.into_iter().map(Gf2).collect()
}

#[test]
fn only_primitive_integers_pass_the_lane_gate() {
    assert!(!is_wrapping_int::<Gf2>());
    assert!(!is_wrapping_int::<f64>());
    assert!(is_wrapping_int::<i64>() && is_wrapping_int::<u64>());
    assert!(is_wrapping_int::<i32>() && is_wrapping_int::<u32>());
    assert!(is_wrapping_int::<i16>() && is_wrapping_int::<u8>());
}

#[test]
fn every_lane_kernel_declines_a_custom_element() {
    let src = values(4096, 1);
    let mut dst = vec![Gf2(0); src.len()];
    for isa in isa::available() {
        assert_eq!(
            simd::stride1_from(isa, &src, &mut dst, Gf2(0)),
            None,
            "{isa}"
        );
        assert_eq!(simd::stride1_in_place(isa, &mut dst), None, "{isa}");
        let mut state = vec![Gf2(0); 2 * 4];
        assert!(
            !simd::vertical_from(isa, &src, &mut dst, 4, &mut state, false),
            "{isa}"
        );
        assert!(
            !simd::vertical_in_place(isa, &mut dst, 4, &mut state, false),
            "{isa}"
        );
        assert!(!simd::vertical_totals(isa, &src, 4, &mut state), "{isa}");
        let mut state = vec![Gf2(0); 3];
        assert!(!simd::sum_totals(isa, &src, &mut state), "{isa}");
        assert!(!simd::linrec_reduction_available::<Gf2>(isa, 3), "{isa}");
    }
}

/// Every engine path a wrapping-integer sum takes — stride-1 blocked
/// kernels, register row sweeps, column reductions, the multi-worker
/// cascade with a streamed output sweep — computes XOR on `Gf2`.
#[test]
fn engines_scan_a_custom_element_with_its_own_addition() {
    let _stream = simd::nt_store_override(1);
    let input = values(20_000, 2);
    let scanner = CpuScanner::new(2).with_chunk_elems(1500);
    for (q, s) in [(1usize, 1usize), (2, 1), (8, 1), (2, 5), (3, 8)] {
        for exclusive in [false, true] {
            let base = if exclusive {
                ScanSpec::exclusive()
            } else {
                ScanSpec::inclusive()
            };
            let spec = base.with_order(q as u32).unwrap().with_tuple(s).unwrap();
            let expect = xor_oracle(&input, q, s, exclusive);
            assert_eq!(
                serial::scan(&input, &Sum, &spec),
                expect,
                "serial q={q} s={s} exc={exclusive}"
            );
            assert_eq!(
                scanner.scan(&input, &Sum, &spec),
                expect,
                "cpu q={q} s={s} exc={exclusive}"
            );
        }
    }
    // The oracle is not accidentally an integer sum: lane casts would show.
    let ints: Vec<u64> = input.iter().map(|v| v.0).collect();
    let summed = serial::scan(&ints, &Sum, &ScanSpec::inclusive());
    assert_ne!(
        summed.iter().map(|&v| Gf2(v)).collect::<Vec<_>>(),
        xor_oracle(&input, 1, 1, false)
    );

    // A recurrence over GF(2)^64: x_i = b_i ^ (c_0 & x_{i-1}) ^ (c_1 & x_{i-2}).
    let coeffs = vec![Gf2(0xF0F0_F0F0_F0F0_F0F0), Gf2(0x0FF0_0FF0_0FF0_0FF0)];
    let rec = LinRec::new(coeffs.clone()).expect("GF(2) is an exact ring");
    let mut expect = Vec::with_capacity(input.len());
    let (mut x1, mut x2) = (0u64, 0u64);
    for b in &input {
        let x = b.0 ^ (coeffs[0].0 & x1) ^ (coeffs[1].0 & x2);
        expect.push(Gf2(x));
        (x2, x1) = (x1, x);
    }
    let spec = ScanSpec::inclusive().with_order(2).unwrap();
    assert_eq!(
        serial::scan(&input, &rec, &spec),
        expect,
        "serial recurrence"
    );
    assert_eq!(scanner.scan(&input, &rec, &spec), expect, "cpu recurrence");
}
