//! Chunk-kernel specialization layer.
//!
//! Every engine in this workspace — the serial oracle, the multi-threaded
//! CPU engine and the simulated GPU kernel — decomposes a scan into the
//! same four chunk-level primitives: a (possibly fused) local strided scan
//! with per-lane totals, a carry application, and an exclusive rewrite.
//! [`ChunkKernel`] captures those primitives as a dispatch trait layered on
//! top of [`ScanOp`]:
//!
//! * the trait's **default methods** implement every primitive generically
//!   for any associative operator, using a rotating lane index instead of a
//!   per-element `(base + j) % s` division (Section 2.3's lane bookkeeping
//!   costs one add-and-compare per element instead of one `div`);
//! * **specialized implementations** override the hot cases. [`Sum`]
//!   overrides the stride-1 paths with an unrolled multi-accumulator
//!   in-register scan (a blocked Hillis–Steele over `BLOCK = 16` lanes
//!   with per-block carry fixup) that LLVM auto-vectorizes for the integer
//!   element types.
//!
//! # Dispatch table
//!
//! | operator | element | stride | kernel |
//! |---|---|---|---|
//! | `Sum` | ints (`EXACT_ASSOC`) | 1 | blocked multi-accumulator, vectorizable; non-temporal stores on x86-64 for ≥ 8 MiB outputs |
//! | `Sum` | ints (`EXACT_ASSOC`) | 2..=64 | **vertical lane-parallel**: `s` accumulators advance together in row form, no per-element lane rotation, LLVM-vectorizable |
//! | `Sum` | floats | 1 | fused sequential accumulator (serial association) |
//! | any  | any | 1 | fused sequential accumulator |
//! | any  | any | s > 1 | in-buffer recurrence, rotating lane index |
//!
//! The `cascade_*` methods add the **single-pass order-`q`** kernels (a
//! length-`q` state vector per lane, advanced once per element — see
//! [`crate::carry`]). They keep the cascade window in registers: `Sum`
//! dispatches stride-1 cascades to const-order kernels for `q <= 8` and
//! lane-aligned `(q, s)` cascades up to `8 x 8` to register row sweeps;
//! [`LinRec`] dispatches stride-1 recurrences of order `<= 8` to a
//! two-elements-per-step register window. Other strided sums take the
//! vertical row form, and the rotating-lane [`reference`](mod@reference) loops cover
//! every remaining case. Totals-only sweeps of stride-1 spans of at least
//! 512 elements reduce instead of scanning where the kernel family allows:
//! sums through [`crate::simd::sum_totals`] (a vector column cascade and a
//! constant basis change), recurrences through
//! [`ChunkKernel::publish_totals`] and [`crate::simd::linrec_totals`] (dot
//! products against an [`ImpulseTable`]). Cascade use is gated on
//! [`ChunkKernel::supports_cascade`] (wrapping-integer sums and
//! recurrences only).
//!
//! # Determinism contract
//!
//! Every kernel is **bitwise identical** to the reference loops it
//! replaces, for every element type. Reassociating fast paths are gated on
//! [`crate::element::ScanElement::EXACT_ASSOC`],
//! so floating-point scans keep the exact left-to-right association of the
//! serial oracle — the deterministic-float property of Section 3.1 is
//! preserved per engine, not just per run.

use crate::element::{is_wrapping_int, IntElement, ScanElement};
use crate::op::{And, FnOp, LinRec, Max, Min, Or, Prod, ScanOp, Sum, Xor};
use crate::segmented::{Element32, Packed32, SegmentedOp};

/// Number of elements the unrolled in-register kernel processes per block.
const BLOCK: usize = 16;

/// Shortest stride-1 span the totals sweeps hand to the vector publish
/// reductions ([`crate::simd::sum_totals`], [`crate::simd::linrec_totals`]),
/// which keeps their fixed cost of mapping back to stride-1 totals (up to
/// `q * q * w` multiply-adds) small against the span.
const REDUCTION_MIN_ELEMS: usize = 512;

/// Chunk-level scan kernels with operator/element/stride specialization.
///
/// All methods have exact-semantics default implementations; concrete
/// operators override the cases they can accelerate. See the module docs
/// for the dispatch table and the determinism contract.
///
/// Lane membership of position `j` (global index `base + j`) is
/// `(base + j) % s`; implementations maintain it with a rotating index.
pub trait ChunkKernel<T: Copy>: ScanOp<T> {
    /// Fused strided inclusive scan of `src` into `dst` (one read of `src`,
    /// one write of `dst`): `dst[j] = src[j]` for `j < s`, otherwise
    /// `dst[j] = op(dst[j - s], src[j])`.
    ///
    /// This is the serial engine's steady-state kernel: it replaces the
    /// copy-then-scan-in-place pair with a single pass, with the identical
    /// left-to-right association (no identity fold).
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or the slices differ in length.
    fn inclusive_from(&self, src: &[T], dst: &mut [T], s: usize) {
        check_fused(src.len(), dst.len(), s);
        let n = src.len();
        if s == 1 {
            self.inclusive_from_stride1(src, dst);
            return;
        }
        let head = s.min(n);
        dst[..head].copy_from_slice(&src[..head]);
        for j in s..n {
            dst[j] = self.combine(dst[j - s], src[j]);
        }
    }

    /// Stride-1 case of [`ChunkKernel::inclusive_from`]: a sequential
    /// running accumulator (the association of the reference loop).
    #[doc(hidden)]
    fn inclusive_from_stride1(&self, src: &[T], dst: &mut [T]) {
        let Some((&first, rest)) = src.split_first() else {
            return;
        };
        let mut acc = first;
        dst[0] = acc;
        for (d, &v) in dst[1..].iter_mut().zip(rest) {
            acc = self.combine(acc, v);
            *d = acc;
        }
    }

    /// In-place strided inclusive scan: `data[j] = op(data[j - s], data[j])`
    /// for `j >= s`, the first `s` elements untouched — exactly the
    /// reference recurrence of `serial::inclusive_strided_in_place`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    fn inclusive_in_place(&self, data: &mut [T], s: usize) {
        assert!(s > 0, "stride must be positive");
        if s == 1 {
            let Some((&first, _)) = data.split_first() else {
                return;
            };
            let mut acc = first;
            for v in &mut data[1..] {
                acc = self.combine(acc, *v);
                *v = acc;
            }
            return;
        }
        for j in s..data.len() {
            data[j] = self.combine(data[j - s], data[j]);
        }
    }

    /// Fused strided exclusive scan of `src` into `dst`: the first element
    /// of each lane receives the identity, every later one the combination
    /// of all earlier same-lane elements.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or the slices differ in length.
    fn exclusive_from(&self, src: &[T], dst: &mut [T], s: usize) {
        check_fused(src.len(), dst.len(), s);
        let n = src.len();
        for d in &mut dst[..s.min(n)] {
            *d = self.identity();
        }
        // dst[j - s] already holds the exclusive prefix of the previous
        // same-lane element; extending it by src[j - s] is the same left
        // fold as the reference per-lane walk.
        for j in s..n {
            dst[j] = self.combine(dst[j - s], src[j - s]);
        }
    }

    /// In-place strided exclusive scan, identical in association to
    /// `serial::exclusive_strided_in_place`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero.
    fn exclusive_in_place(&self, data: &mut [T], s: usize) {
        assert!(s > 0, "stride must be positive");
        let n = data.len();
        for lane in 0..s.min(n) {
            let mut acc = self.identity();
            let mut i = lane;
            while i < n {
                let v = data[i];
                data[i] = acc;
                acc = self.combine(acc, v);
                i += s;
            }
        }
    }

    /// Local strided inclusive scan of one chunk, in place, publishing the
    /// per-lane totals into `totals` (length `s`; lanes with no element in
    /// the chunk receive the identity). `base` is the chunk's global start
    /// offset, which determines lane labeling only.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or `totals.len() != s`.
    fn scan_chunk_in_place(&self, chunk: &mut [T], base: usize, s: usize, totals: &mut [T]) {
        assert!(s > 0, "stride must be positive");
        assert_eq!(totals.len(), s, "one total per lane");
        self.inclusive_in_place(chunk, s);
        collect_totals(self, chunk, base, s, totals);
    }

    /// Fused variant of [`ChunkKernel::scan_chunk_in_place`] reading the
    /// raw chunk from `src` and writing the scanned chunk to `chunk` —
    /// the multi-threaded engine's steady-state kernel (no staging copy).
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero, the slices differ in length, or
    /// `totals.len() != s`.
    fn scan_chunk_from(&self, src: &[T], chunk: &mut [T], base: usize, s: usize, totals: &mut [T]) {
        assert_eq!(totals.len(), s, "one total per lane");
        self.inclusive_from(src, chunk, s);
        collect_totals(self, chunk, base, s, totals);
    }

    /// Combines the accumulated per-lane carries into a scanned chunk:
    /// `chunk[j] = op(carry[(base + j) % s], chunk[j])`.
    ///
    /// # Panics
    ///
    /// Panics if `carry` is empty.
    fn apply_carry(&self, chunk: &mut [T], base: usize, carry: &[T]) {
        let s = carry.len();
        assert!(s > 0, "carry must have one entry per lane");
        if s == 1 {
            let c = carry[0];
            for v in chunk.iter_mut() {
                *v = self.combine(c, *v);
            }
            return;
        }
        let mut lane = base % s;
        for v in chunk.iter_mut() {
            *v = self.combine(carry[lane], *v);
            lane += 1;
            if lane == s {
                lane = 0;
            }
        }
    }

    // --- Single-pass higher-order cascade (the carry algebra) --------------

    /// Whether this operator supports the order-`q` *cascade* kernels and
    /// the binomial carry algebra of [`crate::carry`].
    ///
    /// Requires the operator to be an exactly-associative, commutative
    /// monoid whose `w`-fold self-combination is expressible as a
    /// multiplication by a materialized weight ([`ChunkKernel::carry_weight`]
    /// / [`ChunkKernel::weight_apply`]) — in practice, wrapping-integer
    /// addition. Engines must check this before calling any `cascade_*`
    /// method with a non-trivial seed; generic operators keep the
    /// multi-pass path.
    fn supports_cascade(&self) -> bool {
        false
    }

    /// Materializes a `u64` carry weight (a binomial coefficient mod
    /// `2^64`) as an element value, truncating to the element width.
    ///
    /// Only meaningful when [`ChunkKernel::supports_cascade`] is true.
    fn carry_weight(&self, _w: u64) -> T {
        unimplemented!("carry weights require a cascade-capable operator")
    }

    /// The `w`-fold self-combination of `v`, where `w` came from
    /// [`ChunkKernel::carry_weight`]: for wrapping-integer sums, `v * w`.
    fn weight_apply(&self, _v: T, _w: T) -> T {
        unimplemented!("carry weights require a cascade-capable operator")
    }

    /// For linear-recurrence operators ([`LinRec`]), the fixed coefficient
    /// vector `[a_1, ..., a_k]` of `x_i = b_i + a_1 x_{i-1} + ... +
    /// a_k x_{i-k}`; `None` for every combine-style operator.
    ///
    /// This is the dispatch hook [`crate::carry::CarryPlan`] and the plan
    /// layer use to select the companion-matrix carry semigroup instead of
    /// the binomial Toeplitz one, and to pin recurrence specs onto the
    /// cascade kernel path (an iterated multi-pass scan has no meaning for
    /// a recurrence). When `Some`, the coefficient count must equal the
    /// spec order `q`, and the `cascade_*` methods reinterpret `state` as
    /// the last `q` outputs per lane (row 0 most recent) rather than the
    /// per-order running sums.
    fn recurrence_coeffs(&self) -> Option<&[T]> {
        None
    }

    /// Order-`q` strided cascade of `src` into `dst` in **one sweep**,
    /// seeded by and updating `state`.
    ///
    /// `state` has layout `q x s` (`state[i * s + lane]`, `q` inferred as
    /// `state.len() / s`): entry `(i, l)` is the order-`(i+1)` inclusive
    /// total of every lane-`l` element before this span. Per element the
    /// cascade advances its lane's column (`a_1 += x; a_2 += a_1; ...`) and
    /// emits `a_q` — or, for `exclusive`, the pre-update `a_q`, which is the
    /// order-`q` total of the lane's *earlier* elements. A zero-seeded
    /// (all-identity) cascade over the whole input therefore equals the
    /// iterated `q`-pass scan, and the final `state` holds the per-order,
    /// per-lane local sums the single-pass protocol publishes.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero, the slices differ in length, or `state.len()`
    /// is not a positive multiple of `s`.
    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        check_fused(src.len(), dst.len(), s);
        check_cascade_state(state.len(), s);
        cascade_from_generic(self, src, dst, base, s, state, exclusive);
    }

    /// In-place form of [`ChunkKernel::cascade_scan_from`]: `data` is read
    /// as input and overwritten with the cascade outputs position by
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or `state.len()` is not a positive multiple of
    /// `s`.
    fn cascade_scan_in_place(
        &self,
        data: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        cascade_in_place_generic(self, data, base, s, state, exclusive);
    }

    /// Totals-only cascade: advances `state` over `src` without writing any
    /// outputs — the single-pass protocol's first sweep, which publishes all
    /// `q x s` local sums from one read of the chunk.
    ///
    /// # Panics
    ///
    /// Panics if `s` is zero or `state.len()` is not a positive multiple of
    /// `s`.
    fn cascade_totals(&self, src: &[T], base: usize, s: usize, state: &mut [T]) {
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        cascade_totals_generic(self, src, base, s, state);
    }

    /// Prepares `table` for [`ChunkKernel::publish_totals`] over a scan
    /// whose full chunks hold `chunk_elems` elements at stride `s`, and
    /// returns whether it had to rebuild it. The multi-worker engine calls
    /// this once per scan, before its workers start; the default keeps no
    /// table.
    #[doc(hidden)]
    fn prepare_publish(&self, _table: &mut ImpulseTable<T>, _chunk_elems: usize, _s: usize) -> bool {
        false
    }

    /// The multi-worker engine's publish sweep:
    /// [`ChunkKernel::cascade_totals`] of one chunk of at most the
    /// `chunk_elems` the engine prepared `table` for
    /// ([`ChunkKernel::prepare_publish`]). The default ignores `table`.
    #[doc(hidden)]
    fn publish_totals(&self, src: &[T], base: usize, s: usize, state: &mut [T], _table: &ImpulseTable<T>) {
        self.cascade_totals(src, base, s, state);
    }

    /// Rewrites a *pre-carry* inclusively-scanned chunk into its exclusive
    /// outputs, in place: position `j` receives
    /// `op(carry[lane(j)], scanned[j - s])`, or the lane's carry alone for
    /// the chunk's first `s` positions.
    ///
    /// Walks backwards so no staging buffer is needed.
    ///
    /// # Panics
    ///
    /// Panics if `carry` is empty.
    fn exclusive_rewrite(&self, chunk: &mut [T], base: usize, carry: &[T]) {
        let s = carry.len();
        assert!(s > 0, "carry must have one entry per lane");
        let n = chunk.len();
        if n == 0 {
            return;
        }
        // Rotating lane index, walking down from position n - 1.
        let mut lane = (base + n - 1) % s;
        for j in (s..n).rev() {
            chunk[j] = self.combine(carry[lane], chunk[j - s]);
            lane = if lane == 0 { s - 1 } else { lane - 1 };
        }
        for j in (0..s.min(n)).rev() {
            chunk[j] = carry[lane];
            lane = if lane == 0 { s - 1 } else { lane - 1 };
        }
    }
}

/// The rotating-lane reference loops: the fallback of every specialised
/// cascade kernel, and the oracle the specialised kernels are tested
/// against. Same contracts as the `cascade_*` trait methods (state shape
/// and buffer lengths are not checked here). Not a stable API.
#[doc(hidden)]
pub mod reference {
    pub use super::{
        cascade_from_generic as cascade_from, cascade_in_place_generic as cascade_in_place,
        cascade_totals_generic as cascade_totals, linrec_from, linrec_in_place, linrec_totals,
    };
}

/// Shared argument validation for the fused `*_from` kernels.
fn check_fused(src_len: usize, dst_len: usize, s: usize) {
    assert!(s > 0, "stride must be positive");
    assert_eq!(src_len, dst_len, "fused kernel buffers must match in length");
}

/// Publishes per-lane totals from a scanned chunk: the last element of each
/// lane within the chunk, identity for absent lanes.
fn collect_totals<T: Copy, Op: ScanOp<T> + ?Sized>(
    op: &Op,
    chunk: &[T],
    base: usize,
    s: usize,
    totals: &mut [T],
) {
    for t in totals.iter_mut() {
        *t = op.identity();
    }
    let n = chunk.len();
    for j in n.saturating_sub(s)..n {
        totals[(base + j) % s] = chunk[j];
    }
}

/// Validates a cascade state buffer: a positive multiple of `s`.
fn check_cascade_state(state_len: usize, s: usize) {
    assert!(
        state_len > 0 && state_len.is_multiple_of(s),
        "cascade state must be a positive q x s matrix ({state_len} % {s})"
    );
}

/// Generic rotating-lane cascade, reading `src` and writing `dst`.
///
/// Association per lane column is `a_i = op(a_i, a_{i-1})` — accumulated
/// prefix first, exactly the association of the iterated in-place passes it
/// replaces. Correct for any associative operator; bit-exactness of the
/// zero seed additionally needs a true identity (the
/// [`ChunkKernel::supports_cascade`] gate).
#[doc(hidden)]
pub fn cascade_from_generic<T: Copy, Op: ScanOp<T> + ?Sized>(
    op: &Op,
    src: &[T],
    dst: &mut [T],
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = state.len() / s;
    let mut lane = base % s;
    for (d, &x) in dst.iter_mut().zip(src) {
        let prev_top = state[(q - 1) * s + lane];
        state[lane] = op.combine(state[lane], x);
        for i in 1..q {
            state[i * s + lane] = op.combine(state[i * s + lane], state[(i - 1) * s + lane]);
        }
        *d = if exclusive { prev_top } else { state[(q - 1) * s + lane] };
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Generic rotating-lane cascade, in place.
#[doc(hidden)]
pub fn cascade_in_place_generic<T: Copy, Op: ScanOp<T> + ?Sized>(
    op: &Op,
    data: &mut [T],
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = state.len() / s;
    let mut lane = base % s;
    for v in data.iter_mut() {
        let x = *v;
        let prev_top = state[(q - 1) * s + lane];
        state[lane] = op.combine(state[lane], x);
        for i in 1..q {
            state[i * s + lane] = op.combine(state[i * s + lane], state[(i - 1) * s + lane]);
        }
        *v = if exclusive { prev_top } else { state[(q - 1) * s + lane] };
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Generic rotating-lane totals-only cascade.
#[doc(hidden)]
pub fn cascade_totals_generic<T: Copy, Op: ScanOp<T> + ?Sized>(
    op: &Op,
    src: &[T],
    base: usize,
    s: usize,
    state: &mut [T],
) {
    let q = state.len() / s;
    let mut lane = base % s;
    for &x in src {
        state[lane] = op.combine(state[lane], x);
        for i in 1..q {
            state[i * s + lane] = op.combine(state[i * s + lane], state[(i - 1) * s + lane]);
        }
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

// --- Sum: unrolled multi-accumulator stride-1 kernels ----------------------

// The non-temporal store threshold is shared with the explicit SIMD
// kernels (`simd.rs`) so the two layers flip to streaming stores at the
// same output size; see its definition for the rationale. Measured
// ~1.2–1.5× on the fused pass once the output no longer fits in cache.
// (Every consumer in this file is x86-64-only, hence the gated import.)
#[cfg(target_arch = "x86_64")]
use crate::simd::nt_store_min_bytes;

/// Scans one `BLOCK`-element block with Hillis–Steele steps 1, 2, 4, 8
/// (double-buffered between two register arrays so every step is a
/// shift-free vector add). No carry applied.
#[inline]
fn scan_block<T: ScanElement>(sb: &[T]) -> [T; BLOCK] {
    let mut a = [T::ZERO; BLOCK];
    a.copy_from_slice(sb);
    let mut b = [T::ZERO; BLOCK];
    // Hillis–Steele: after the step of width d, a[i] holds the sum of
    // the trailing window of length min(i + 1, 2d).
    b[..1].copy_from_slice(&a[..1]);
    for i in 1..BLOCK {
        b[i] = a[i - 1].add(a[i]);
    }
    a[..2].copy_from_slice(&b[..2]);
    for i in 2..BLOCK {
        a[i] = b[i - 2].add(b[i]);
    }
    b[..4].copy_from_slice(&a[..4]);
    for i in 4..BLOCK {
        b[i] = a[i - 4].add(a[i]);
    }
    a[..8].copy_from_slice(&b[..8]);
    for i in 8..BLOCK {
        a[i] = b[i - 8].add(b[i]);
    }
    a
}

/// Blocked Hillis–Steele over `BLOCK` register accumulators: each block of
/// 16 elements is scanned in registers ([`scan_block`]), then offset by the
/// running carry.
///
/// Only called for `T::EXACT_ASSOC` element types: the reassociation is
/// exact for wrapping integer addition, so the result is bit-identical to
/// the sequential accumulator.
#[inline]
fn sum_blocks_from<T: ScanElement>(src: &[T], dst: &mut [T], carry: T) -> T {
    // Explicit SIMD/SWAR first: the resolved ISA's kernel is bit-identical
    // and decides non-temporal stores internally.
    if let Some(c) = crate::simd::stride1_from(crate::isa::resolved(), src, dst, carry) {
        return c;
    }
    #[cfg(target_arch = "x86_64")]
    if std::mem::size_of_val(src) >= nt_store_min_bytes()
        && 16 % std::mem::size_of::<T>() == 0
    {
        return sum_blocks_from_nt(src, dst, carry);
    }
    sum_blocks_from_cached(src, dst, carry)
}

/// [`sum_blocks_from`] with ordinary (write-allocating) stores.
#[inline]
fn sum_blocks_from_cached<T: ScanElement>(src: &[T], dst: &mut [T], mut carry: T) -> T {
    let mut blocks = src.chunks_exact(BLOCK);
    let mut out_blocks = dst.chunks_exact_mut(BLOCK);
    for (sb, db) in (&mut blocks).zip(&mut out_blocks) {
        let a = scan_block(sb);
        // Carry fixup: one broadcast add per block.
        for (d, &v) in db.iter_mut().zip(&a) {
            *d = carry.add(v);
        }
        carry = db[BLOCK - 1];
    }
    // Sequential tail (< BLOCK elements).
    for (d, &v) in out_blocks.into_remainder().iter_mut().zip(blocks.remainder()) {
        carry = carry.add(v);
        *d = carry;
    }
    carry
}

/// [`sum_blocks_from`] with `movntdq` stores that bypass the cache
/// hierarchy, eliminating the read-for-ownership of the destination.
///
/// Bit-identical to the cached path (only the store instruction differs).
/// Dispatch guarantees `size_of::<T>()` divides 16, so the scalar prologue
/// reaches 16-byte alignment in whole elements and each block covers whole
/// vectors.
#[cfg(target_arch = "x86_64")]
fn sum_blocks_from_nt<T: ScanElement>(src: &[T], dst: &mut [T], mut carry: T) -> T {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_sfence, _mm_stream_si128};
    let n = src.len();
    // Scalar prologue until the destination is 16-byte aligned.
    let mut start = 0;
    while start < n && !dst[start..].as_ptr().addr().is_multiple_of(16) {
        carry = carry.add(src[start]);
        dst[start] = carry;
        start += 1;
    }
    let blocks = (n - start) / BLOCK;
    let vecs = BLOCK * std::mem::size_of::<T>() / 16;
    unsafe {
        let dp = dst.as_mut_ptr().add(start);
        for blk in 0..blocks {
            let mut a = scan_block(&src[start + blk * BLOCK..start + (blk + 1) * BLOCK]);
            for v in &mut a {
                *v = carry.add(*v);
            }
            carry = a[BLOCK - 1];
            // SAFETY: dp is 16-byte aligned (prologue above) and block
            // `blk` spans `vecs` whole vectors inside `dst`.
            let d = dp.add(blk * BLOCK).cast::<__m128i>();
            for k in 0..vecs {
                _mm_stream_si128(d.add(k), _mm_loadu_si128(a.as_ptr().cast::<__m128i>().add(k)));
            }
        }
        // Non-temporal stores are weakly ordered: fence before returning so
        // the CPU engine's subsequent ready-flag release publishes them.
        _mm_sfence();
    }
    for j in start + blocks * BLOCK..n {
        carry = carry.add(src[j]);
        dst[j] = carry;
    }
    carry
}

// --- Sum: cascade and lane-parallel (vertical) tuple kernels ---------------

/// Maximum tuple size the vertical stride-`s` sum kernels cover with a
/// stack-allocated accumulator row; larger strides take the generic
/// in-buffer recurrence (they are past the width any SIMD unit exploits
/// anyway). Exposed because the [`crate::scanner`] auto-crossover model
/// keys off the same vectorized/non-vectorized boundary.
pub const VERTICAL_LANES_MAX: usize = 64;

/// Stride-1 order-`Q` cascade with the state held in `Q` registers: per
/// element, `Q` dependent adds — but the chains of *successive elements*
/// overlap (level `i` of element `j + 1` only needs level `i` of element
/// `j`), so an out-of-order core sustains ~1 element per `Q`/issue-width
/// cycles rather than the naive `Q`-cycle latency chain.
#[inline]
fn sum_cascade1_from<T: ScanElement, const Q: usize>(
    src: &[T],
    dst: &mut [T],
    state: &mut [T],
    exclusive: bool,
) {
    let mut a = [T::ZERO; Q];
    a.copy_from_slice(&state[..Q]);
    if exclusive {
        for (d, &x) in dst.iter_mut().zip(src) {
            let out = a[Q - 1];
            a[0] = a[0].add(x);
            for i in 1..Q {
                a[i] = a[i].add(a[i - 1]);
            }
            *d = out;
        }
    } else {
        for (d, &x) in dst.iter_mut().zip(src) {
            a[0] = a[0].add(x);
            for i in 1..Q {
                a[i] = a[i].add(a[i - 1]);
            }
            *d = a[Q - 1];
        }
    }
    state[..Q].copy_from_slice(&a);
}

/// In-place form of [`sum_cascade1_from`].
#[inline]
fn sum_cascade1_in_place<T: ScanElement, const Q: usize>(
    data: &mut [T],
    state: &mut [T],
    exclusive: bool,
) {
    let mut a = [T::ZERO; Q];
    a.copy_from_slice(&state[..Q]);
    if exclusive {
        for v in data.iter_mut() {
            let x = *v;
            let out = a[Q - 1];
            a[0] = a[0].add(x);
            for i in 1..Q {
                a[i] = a[i].add(a[i - 1]);
            }
            *v = out;
        }
    } else {
        for v in data.iter_mut() {
            let x = *v;
            a[0] = a[0].add(x);
            for i in 1..Q {
                a[i] = a[i].add(a[i - 1]);
            }
            *v = a[Q - 1];
        }
    }
    state[..Q].copy_from_slice(&a);
}

/// Totals-only form of [`sum_cascade1_from`] (no output writes): the
/// single-pass protocol's publish sweep.
#[inline]
fn sum_cascade1_totals<T: ScanElement, const Q: usize>(src: &[T], state: &mut [T]) {
    let mut a = [T::ZERO; Q];
    a.copy_from_slice(&state[..Q]);
    for &x in src {
        a[0] = a[0].add(x);
        for i in 1..Q {
            a[i] = a[i].add(a[i - 1]);
        }
    }
    state[..Q].copy_from_slice(&a);
}

/// Advances a register-resident `Q x S` cascade window by one full row:
/// level 0 absorbs the input row, level `i` absorbs level `i - 1`.
#[inline(always)]
fn rows_advance<T: ScanElement, const Q: usize, const S: usize>(st: &mut [[T; S]; Q], row: &[T; S]) {
    for (a, &x) in st[0].iter_mut().zip(row) {
        *a = a.add(x);
    }
    for i in 1..Q {
        let (lower, upper) = st.split_at_mut(i);
        for (a, &b) in upper[0].iter_mut().zip(&lower[i - 1]) {
            *a = a.add(b);
        }
    }
}

/// Advances lane `l` of a row-major `q x s` `state` by one element and
/// returns the lane's new top level: the partial last row of a row sweep,
/// run on the stored window because a runtime lane index would pin the
/// register window to the stack for the whole sweep.
fn state_advance_lane<T: ScanElement>(state: &mut [T], s: usize, l: usize, x: T) -> T {
    state[l] = state[l].add(x);
    for i in (s + l..state.len()).step_by(s) {
        state[i] = state[i].add(state[i - s]);
    }
    state[state.len() - s + l]
}

/// The row-major `Q x S` `state` as a window of rows: one length check,
/// after which loads and stores of the window are whole-array copies that
/// stay in registers.
#[inline(always)]
fn rows_window<T: ScanElement, const Q: usize, const S: usize>(state: &mut [T]) -> &mut [[T; S]; Q] {
    let (rows, _) = state.as_chunks_mut::<S>();
    rows.try_into().expect("cascade state is a Q x S window")
}

/// Inclusive vertical order-`Q` cascade over `S`-lane rows with the whole
/// `Q x S` window held in local arrays across the sweep — the
/// register-resident row layout of Zhang, Wang & Ross applied to the carry
/// window itself. Per row: one load and one store per element and `Q x S`
/// adds on registers, with no state-row store-to-load round trip on the
/// row-to-row chain. Same per-lane association as
/// [`sum_cascade_vertical_from`]; requires `base % S == 0`. The exclusive
/// form is built on it by [`rows_from`].
fn sum_rows_from<T: ScanElement, const Q: usize, const S: usize>(
    src: &[T],
    dst: &mut [T],
    state: &mut [T],
) {
    let window = rows_window::<T, Q, S>(state);
    let mut st = *window;
    let (srows, stail) = src.as_chunks::<S>();
    let (drows, dtail) = dst.as_chunks_mut::<S>();
    for (sr, dr) in srows.iter().zip(drows) {
        rows_advance(&mut st, sr);
        *dr = st[Q - 1];
    }
    *window = st;
    for (l, (&x, d)) in stail.iter().zip(dtail).enumerate() {
        *d = state_advance_lane(state, S, l, x);
    }
}

/// Totals-only form of [`sum_rows_from`].
fn sum_rows_totals<T: ScanElement, const Q: usize, const S: usize>(src: &[T], state: &mut [T]) {
    let window = rows_window::<T, Q, S>(state);
    let mut st = *window;
    let (srows, stail) = src.as_chunks::<S>();
    for sr in srows {
        rows_advance(&mut st, sr);
    }
    *window = st;
    for (l, &x) in stail.iter().enumerate() {
        state_advance_lane(state, S, l, x);
    }
}

/// Vertical stride-`s` cascade: all `s` lanes advance together, one state
/// *row* per cascade level, so every inner loop is a contiguous
/// element-wise add over `s`-element rows — no per-element lane rotation,
/// and LLVM vectorizes each row operation (the SIMD mapping of Zhang,
/// Wang & Ross for strided scans, composed with the order-`q` state).
///
/// Requires `base % s == 0` so position `j` of the span is lane `j % s`.
/// The tail (`len % s` elements) is a final partial row.
fn sum_cascade_vertical_from<T: ScanElement>(
    src: &[T],
    dst: &mut [T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    if crate::simd::vertical_from(crate::isa::resolved(), src, dst, s, state, exclusive) {
        return;
    }
    let q = state.len() / s;
    let top = (q - 1) * s;
    let mut off = 0;
    while off + s <= src.len() {
        if exclusive {
            dst[off..off + s].copy_from_slice(&state[top..]);
        }
        for l in 0..s {
            state[l] = state[l].add(src[off + l]);
        }
        for i in 1..q {
            let (prev, cur) = state.split_at_mut(i * s);
            let prev = &prev[(i - 1) * s..];
            for l in 0..s {
                cur[l] = cur[l].add(prev[l]);
            }
        }
        if !exclusive {
            dst[off..off + s].copy_from_slice(&state[top..]);
        }
        off += s;
    }
    // Partial final row: lane l = position offset, still aligned.
    for (l, (&x, d)) in src[off..].iter().zip(&mut dst[off..]).enumerate() {
        let out_prev = state[top + l];
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
        *d = if exclusive { out_prev } else { state[top + l] };
    }
}

/// In-place form of [`sum_cascade_vertical_from`]: each row's input is
/// consumed before its position is overwritten.
fn sum_cascade_vertical_in_place<T: ScanElement>(
    data: &mut [T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    if crate::simd::vertical_in_place(crate::isa::resolved(), data, s, state, exclusive) {
        return;
    }
    let q = state.len() / s;
    let top = (q - 1) * s;
    let mut off = 0;
    while off + s <= data.len() {
        if exclusive {
            for l in 0..s {
                let x = data[off + l];
                data[off + l] = state[top + l];
                state[l] = state[l].add(x);
            }
        } else {
            for l in 0..s {
                state[l] = state[l].add(data[off + l]);
            }
        }
        for i in 1..q {
            let (prev, cur) = state.split_at_mut(i * s);
            let prev = &prev[(i - 1) * s..];
            for l in 0..s {
                cur[l] = cur[l].add(prev[l]);
            }
        }
        if !exclusive {
            data[off..off + s].copy_from_slice(&state[top..]);
        }
        off += s;
    }
    for (l, v) in data[off..].iter_mut().enumerate() {
        let x = *v;
        let out_prev = state[top + l];
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
        *v = if exclusive { out_prev } else { state[top + l] };
    }
}

/// Totals-only form of [`sum_cascade_vertical_from`].
fn sum_cascade_vertical_totals<T: ScanElement>(src: &[T], s: usize, state: &mut [T]) {
    if crate::simd::vertical_totals(crate::isa::resolved(), src, s, state) {
        return;
    }
    let q = state.len() / s;
    let mut off = 0;
    while off + s <= src.len() {
        for l in 0..s {
            state[l] = state[l].add(src[off + l]);
        }
        for i in 1..q {
            let (prev, cur) = state.split_at_mut(i * s);
            let prev = &prev[(i - 1) * s..];
            for l in 0..s {
                cur[l] = cur[l].add(prev[l]);
            }
        }
        off += s;
    }
    for (l, &x) in src[off..].iter().enumerate() {
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
    }
}

/// Dispatches a cascade to its register-window kernel, monomorphized over
/// a const shape so the window lives in local arrays (registers) instead
/// of round-tripping through the caller's `state` slice per element.
///
/// * `cascade_dispatch!(q, kernel(args), fallback)` — stride-1 kernels,
///   `kernel::<T, Q>` for orders `Q` in `1..=8` (the paper's evaluation
///   grid); larger orders take `fallback`.
/// * `cascade_dispatch!(q, s, kernel(args), fallback)` — row sweeps,
///   `kernel::<T, Q, S>` for the `(Q, S)` shapes in the table below and
///   `fallback` for every other shape. The table holds the shapes where
///   the register row sweep measured faster than the `simd::vertical_*`
///   strip kernels on `i64` (DESIGN.md §15.5): every `q` in `2..=8` by `s`
///   in `2..=8`. Tuples past 8 and order 1 (whose running row the `simd`
///   small-row kernels already keep in registers) take the fallback. Row
///   sweeps are instantiated for the `u64` and `u32` lanes only
///   ([`sum_rows`]), so the code is bounded by the table times two, not by
///   the table times every element type in every crate that scans.
macro_rules! cascade_dispatch {
    ($q:expr, $kernel:ident $args:tt, $fallback:expr) => {
        match $q {
            1 => $kernel::<T, 1> $args,
            2 => $kernel::<T, 2> $args,
            3 => $kernel::<T, 3> $args,
            4 => $kernel::<T, 4> $args,
            5 => $kernel::<T, 5> $args,
            6 => $kernel::<T, 6> $args,
            7 => $kernel::<T, 7> $args,
            8 => $kernel::<T, 8> $args,
            _ => $fallback,
        }
    };
    ($q:expr, $s:expr, $kernel:ident $args:tt, $fallback:expr) => {
        cascade_dispatch!(@rows ($q, $s), $kernel $args, $fallback;
            2 => [2 3 4 5 6 7 8]
            3 => [2 3 4 5 6 7 8]
            4 => [2 3 4 5 6 7 8]
            5 => [2 3 4 5 6 7 8]
            6 => [2 3 4 5 6 7 8]
            7 => [2 3 4 5 6 7 8]
            8 => [2 3 4 5 6 7 8]
        )
    };
    (@rows $shape:expr, $kernel:ident $args:tt, $fallback:expr;
        $($q:literal => [$($s:literal)*])*) => {
        match $shape {
            $($(($q, $s) => $kernel::<T, $q, $s> $args,)*)*
            _ => $fallback,
        }
    };
}

impl<T: ScanElement> ChunkKernel<T> for Sum {
    fn inclusive_from_stride1(&self, src: &[T], dst: &mut [T]) {
        if T::EXACT_ASSOC {
            // Starting the carry at ZERO instead of src[0] is exact for
            // wrapping integers (ZERO is a true identity).
            sum_blocks_from(src, dst, T::ZERO);
            return;
        }
        let Some((&first, rest)) = src.split_first() else {
            return;
        };
        let mut acc = first;
        dst[0] = acc;
        for (d, &v) in dst[1..].iter_mut().zip(rest) {
            acc = acc.add(v);
            *d = acc;
        }
    }

    fn inclusive_from(&self, src: &[T], dst: &mut [T], s: usize) {
        check_fused(src.len(), dst.len(), s);
        if s == 1 {
            self.inclusive_from_stride1(src, dst);
            return;
        }
        if T::EXACT_ASSOC && s <= VERTICAL_LANES_MAX {
            // Lane-parallel vertical form: s accumulators advance together,
            // exact for wrapping integers (ZERO is a true identity).
            let mut state = [T::ZERO; VERTICAL_LANES_MAX];
            sum_cascade_vertical_from(src, dst, s, &mut state[..s], false);
            return;
        }
        let n = src.len();
        let head = s.min(n);
        dst[..head].copy_from_slice(&src[..head]);
        for j in s..n {
            dst[j] = dst[j - s].add(src[j]);
        }
    }

    fn inclusive_in_place(&self, data: &mut [T], s: usize) {
        assert!(s > 0, "stride must be positive");
        if s == 1 {
            if T::EXACT_ASSOC {
                sum_in_place_blocked(data);
            } else {
                let Some((&first, _)) = data.split_first() else {
                    return;
                };
                let mut acc = first;
                for v in &mut data[1..] {
                    acc = acc.add(*v);
                    *v = acc;
                }
            }
            return;
        }
        if T::EXACT_ASSOC && s <= VERTICAL_LANES_MAX {
            let mut state = [T::ZERO; VERTICAL_LANES_MAX];
            sum_cascade_vertical_in_place(data, s, &mut state[..s], false);
            return;
        }
        for j in s..data.len() {
            data[j] = data[j - s].add(data[j]);
        }
    }

    fn exclusive_from(&self, src: &[T], dst: &mut [T], s: usize) {
        check_fused(src.len(), dst.len(), s);
        let n = src.len();
        if s == 1 && T::EXACT_ASSOC {
            if n == 0 {
                return;
            }
            // exclusive = inclusive shifted by one: scan src[..n-1] into
            // dst[1..], identity at the front.
            dst[0] = T::ZERO;
            sum_blocks_from(&src[..n - 1], &mut dst[1..], T::ZERO);
            return;
        }
        if s > 1 && T::EXACT_ASSOC && s <= VERTICAL_LANES_MAX {
            let mut state = [T::ZERO; VERTICAL_LANES_MAX];
            sum_cascade_vertical_from(src, dst, s, &mut state[..s], true);
            return;
        }
        for d in &mut dst[..s.min(n)] {
            *d = T::ZERO;
        }
        for j in s..n {
            dst[j] = dst[j - s].add(src[j - s]);
        }
    }

    fn exclusive_in_place(&self, data: &mut [T], s: usize) {
        assert!(s > 0, "stride must be positive");
        if T::EXACT_ASSOC && s > 1 && s <= VERTICAL_LANES_MAX {
            let mut state = [T::ZERO; VERTICAL_LANES_MAX];
            sum_cascade_vertical_in_place(data, s, &mut state[..s], true);
            return;
        }
        // Reference per-lane walk (the default association).
        let n = data.len();
        for lane in 0..s.min(n) {
            let mut acc = T::ZERO;
            let mut i = lane;
            while i < n {
                let v = data[i];
                data[i] = acc;
                acc = acc.add(v);
                i += s;
            }
        }
    }

    fn supports_cascade(&self) -> bool {
        T::EXACT_RING
    }

    fn carry_weight(&self, w: u64) -> T {
        T::from_u64_wrapping(w)
    }

    fn weight_apply(&self, v: T, w: T) -> T {
        v.mul(w)
    }

    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        check_fused(src.len(), dst.len(), s);
        check_cascade_state(state.len(), s);
        let q = state.len() / s;
        if !T::EXACT_ASSOC {
            cascade_from_generic(self, src, dst, base, s, state, exclusive);
        } else if s == 1 {
            cascade_dispatch!(
                q,
                sum_cascade1_from(src, dst, state, exclusive),
                cascade_from_generic(self, src, dst, base, 1, state, exclusive)
            );
        } else if base.is_multiple_of(s) {
            let sweep = Sweep::From { src, dst: &mut *dst, exclusive };
            if !sum_rows(sweep, s, state) {
                sum_cascade_vertical_from(src, dst, s, state, exclusive);
            }
        } else {
            cascade_from_generic(self, src, dst, base, s, state, exclusive);
        }
    }

    fn cascade_scan_in_place(
        &self,
        data: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        let q = state.len() / s;
        if !T::EXACT_ASSOC {
            cascade_in_place_generic(self, data, base, s, state, exclusive);
        } else if s == 1 {
            cascade_dispatch!(
                q,
                sum_cascade1_in_place(data, state, exclusive),
                cascade_in_place_generic(self, data, base, 1, state, exclusive)
            );
        } else if base.is_multiple_of(s) {
            if !sum_rows(Sweep::InPlace { data: &mut *data, exclusive }, s, state) {
                sum_cascade_vertical_in_place(data, s, state, exclusive);
            }
        } else {
            cascade_in_place_generic(self, data, base, s, state, exclusive);
        }
    }

    fn cascade_totals(&self, src: &[T], base: usize, s: usize, state: &mut [T]) {
        assert!(s > 0, "stride must be positive");
        check_cascade_state(state.len(), s);
        let q = state.len() / s;
        if !T::EXACT_ASSOC {
            cascade_totals_generic(self, src, base, s, state);
        } else if s == 1 {
            // The vector column reduction, on spans long enough to repay
            // its fixed basis change.
            let reduced = src.len() >= REDUCTION_MIN_ELEMS
                && crate::simd::sum_totals(crate::isa::resolved(), src, state);
            if !reduced {
                cascade_dispatch!(
                    q,
                    sum_cascade1_totals(src, state),
                    cascade_totals_generic(self, src, base, 1, state)
                );
            }
        } else if base.is_multiple_of(s) {
            if !sum_rows(Sweep::Totals { src }, s, state) {
                sum_cascade_vertical_totals(src, s, state);
            }
        } else {
            cascade_totals_generic(self, src, base, s, state);
        }
    }
}

/// In-place blocked stride-1 sum scan (`EXACT_ASSOC` types only).
///
/// Always uses cacheable stores: in place, every destination line was just
/// read, so there is no ownership read to elide.
#[inline]
fn sum_in_place_blocked<T: ScanElement>(data: &mut [T]) {
    if crate::simd::stride1_in_place(crate::isa::resolved(), data).is_some() {
        return;
    }
    let mut carry = T::ZERO;
    let mut blocks = data.chunks_exact_mut(BLOCK);
    for db in &mut blocks {
        let a = scan_block(db);
        for (d, &v) in db.iter_mut().zip(&a) {
            *d = carry.add(v);
        }
        carry = db[BLOCK - 1];
    }
    for v in blocks.into_remainder() {
        carry = carry.add(*v);
        *v = carry;
    }
}

// --- LinRec: fixed-coefficient linear-recurrence sweeps --------------------

/// Rotating-lane linear-recurrence sweep, reading `src` and writing `dst`.
///
/// `state` holds the last `q` outputs per lane, most recent in row 0
/// (`state[j * s + lane] = x_{i-1-j}`). Per element the predecessor
/// contribution `pred = sum_j a_j * x_{i-1-j}` is formed, the new output
/// `y = x + pred` shifts the lane's window down one row, and the emitted
/// value is `y` (inclusive) or `pred` (exclusive) — the recurrence
/// analogue of the sum cascade's pre-update top row, which reduces to the
/// exclusive prefix sum for `coeffs == [1]`.
#[doc(hidden)]
pub fn linrec_from<T: ScanElement>(
    coeffs: &[T],
    src: &[T],
    dst: &mut [T],
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = coeffs.len();
    let mut lane = base % s;
    for (d, &x) in dst.iter_mut().zip(src) {
        let mut pred = T::ZERO;
        for (j, &c) in coeffs.iter().enumerate() {
            pred = pred.add(state[j * s + lane].mul(c));
        }
        let y = x.add(pred);
        for j in (1..q).rev() {
            state[j * s + lane] = state[(j - 1) * s + lane];
        }
        state[lane] = y;
        *d = if exclusive { pred } else { y };
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// In-place form of [`linrec_from`].
#[doc(hidden)]
pub fn linrec_in_place<T: ScanElement>(
    coeffs: &[T],
    data: &mut [T],
    base: usize,
    s: usize,
    state: &mut [T],
    exclusive: bool,
) {
    let q = coeffs.len();
    let mut lane = base % s;
    for v in data.iter_mut() {
        let x = *v;
        let mut pred = T::ZERO;
        for (j, &c) in coeffs.iter().enumerate() {
            pred = pred.add(state[j * s + lane].mul(c));
        }
        let y = x.add(pred);
        for j in (1..q).rev() {
            state[j * s + lane] = state[(j - 1) * s + lane];
        }
        state[lane] = y;
        *v = if exclusive { pred } else { y };
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Totals-only form of [`linrec_from`]: advances the output window without
/// writing outputs (the single-pass protocol's first sweep).
#[doc(hidden)]
pub fn linrec_totals<T: ScanElement>(coeffs: &[T], src: &[T], base: usize, s: usize, state: &mut [T]) {
    let q = coeffs.len();
    let mut lane = base % s;
    for &x in src {
        let mut pred = T::ZERO;
        for (j, &c) in coeffs.iter().enumerate() {
            pred = pred.add(state[j * s + lane].mul(c));
        }
        let y = x.add(pred);
        for j in (1..q).rev() {
            state[j * s + lane] = state[(j - 1) * s + lane];
        }
        state[lane] = y;
        lane += 1;
        if lane == s {
            lane = 0;
        }
    }
}

/// Register window of a stride-1 order-`Q` recurrence: the coefficients
/// `c`, the two-step coefficients `d`, and the last `Q` outputs `w` (most
/// recent first) — all in local arrays, so no per-element coefficient-slice
/// loop and no store-to-load round trip through `state`.
///
/// Sums are regrouped against [`linrec_from`]'s left fold, which is exact:
/// [`LinRec`] exists only over exact rings (wrapping integers). For the
/// same reason the exclusive output `pred` is recovered as `y - x`.
struct Linrec1<T, const Q: usize> {
    c: [T; Q],
    d: [T; Q],
    w: [T; Q],
}

impl<T: ScanElement, const Q: usize> Linrec1<T, Q> {
    #[inline(always)]
    fn new(coeffs: &[T], state: &[T]) -> Self {
        let mut c = [T::ZERO; Q];
        c.copy_from_slice(coeffs);
        let mut w = [T::ZERO; Q];
        w.copy_from_slice(&state[..Q]);
        // y_{i+1} = x_{i+1} + a_1 x_i + sum_j (a_1 a_{j+1} + a_{j+2}) w_j.
        let d = std::array::from_fn(|j| {
            let next = if j + 1 < Q { c[j + 1] } else { T::ZERO };
            c[0].mul(c[j]).add(next)
        });
        Self { c, d, w }
    }

    /// One element: returns its output and shifts it into the window.
    #[inline(always)]
    fn step(&mut self, x: T) -> T {
        let mut y = x;
        for j in (0..Q).rev() {
            y = y.add(self.c[j].mul(self.w[j]));
        }
        for j in (1..Q).rev() {
            self.w[j] = self.w[j - 1];
        }
        self.w[0] = y;
        y
    }

    /// Two elements from the same window: the second output is expanded
    /// through the first (`d`), so both hang off the window by one
    /// multiply-add and the dependency chain advances two elements per
    /// multiply latency instead of one.
    #[inline(always)]
    fn pair(&mut self, x0: T, x1: T) -> (T, T) {
        let mut y0 = x0;
        let mut y1 = x1.add(self.c[0].mul(x0));
        // Oldest terms first: the products of `w[0]`, the previous pair's
        // last output, are added last.
        for j in (0..Q).rev() {
            y0 = y0.add(self.c[j].mul(self.w[j]));
            y1 = y1.add(self.d[j].mul(self.w[j]));
        }
        for j in (2..Q).rev() {
            self.w[j] = self.w[j - 2];
        }
        if Q > 1 {
            self.w[1] = y0;
        }
        self.w[0] = y1;
        (y0, y1)
    }
}

/// Stride-1 order-`Q` [`linrec_from`] on a [`Linrec1`] register window,
/// two elements per step.
#[inline]
fn linrec1_from<T: ScanElement, const Q: usize>(
    coeffs: &[T],
    src: &[T],
    dst: &mut [T],
    state: &mut [T],
    exclusive: bool,
) {
    let mut r = Linrec1::<T, Q>::new(coeffs, state);
    let mut spairs = src.chunks_exact(2);
    let mut dpairs = dst.chunks_exact_mut(2);
    if exclusive {
        for (x, d) in (&mut spairs).zip(&mut dpairs) {
            let (y0, y1) = r.pair(x[0], x[1]);
            d[0] = y0.sub(x[0]);
            d[1] = y1.sub(x[1]);
        }
    } else {
        for (x, d) in (&mut spairs).zip(&mut dpairs) {
            let (y0, y1) = r.pair(x[0], x[1]);
            d[0] = y0;
            d[1] = y1;
        }
    }
    let tail = (spairs.remainder().first(), dpairs.into_remainder().first_mut());
    if let (Some(&x), Some(d)) = tail {
        let y = r.step(x);
        *d = if exclusive { y.sub(x) } else { y };
    }
    state[..Q].copy_from_slice(&r.w);
}

/// Totals-only form of [`linrec1_from`].
#[inline]
fn linrec1_totals<T: ScanElement, const Q: usize>(coeffs: &[T], src: &[T], state: &mut [T]) {
    let mut r = Linrec1::<T, Q>::new(coeffs, state);
    let mut pairs = src.chunks_exact(2);
    for x in &mut pairs {
        r.pair(x[0], x[1]);
    }
    if let Some(&x) = pairs.remainder().first() {
        r.step(x);
    }
    state[..Q].copy_from_slice(&r.w);
}

/// Validates a recurrence state buffer against the coefficient order: the
/// `q x s` window must hold exactly one row per coefficient.
fn check_recurrence_state(state_len: usize, s: usize, order: usize) {
    check_cascade_state(state_len, s);
    assert_eq!(
        state_len / s,
        order,
        "recurrence state must hold exactly `order` rows per lane"
    );
}

// --- Register-window sweeps, compiled once per lane width -----------------

/// One cascade sweep over a span, in the three forms the `cascade_*`
/// methods take.
enum Sweep<'a, T> {
    From {
        src: &'a [T],
        dst: &'a mut [T],
        exclusive: bool,
    },
    InPlace {
        data: &'a mut [T],
        exclusive: bool,
    },
    Totals {
        src: &'a [T],
    },
}

/// Whether `T` and `U` are primitive wrapping integers of one size and
/// alignment (the [`is_wrapping_int`] gate the `simd` kernels rely
/// on): every bit pattern is a value of both, and wrapping
/// `add`/`mul` give the same bits in both.
fn same_lanes<T: ScanElement, U: ScanElement>() -> bool {
    is_wrapping_int::<T>()
        && is_wrapping_int::<U>()
        && std::mem::size_of::<T>() == std::mem::size_of::<U>()
        && std::mem::align_of::<T>() == std::mem::align_of::<U>()
}

/// `v` as a slice of the lane type `U`, or `None` unless [`same_lanes`].
fn lanes<T: ScanElement, U: ScanElement>(v: &[T]) -> Option<&[U]> {
    // SAFETY: `same_lanes` — identical size, alignment and valid bit
    // patterns, so the cast slice covers exactly the same bytes.
    same_lanes::<T, U>().then(|| unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), v.len()) })
}

/// Mutable form of [`lanes`].
fn lanes_mut<T: ScanElement, U: ScanElement>(v: &mut [T]) -> Option<&mut [U]> {
    // SAFETY: as in `lanes`; the result reborrows `v` exclusively.
    same_lanes::<T, U>()
        .then(|| unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), v.len()) })
}

impl<'a, T: ScanElement> Sweep<'a, T> {
    /// The same sweep over the lane type `U`, or `None` unless
    /// [`same_lanes`].
    fn lanes<U: ScanElement>(self) -> Option<Sweep<'a, U>> {
        Some(match self {
            Sweep::From { src, dst, exclusive } => Sweep::From {
                src: lanes(src)?,
                dst: lanes_mut(dst)?,
                exclusive,
            },
            Sweep::InPlace { data, exclusive } => Sweep::InPlace {
                data: lanes_mut(data)?,
                exclusive,
            },
            Sweep::Totals { src } => Sweep::Totals { src: lanes(src)? },
        })
    }
}

/// Runs `sweep` as a register row sweep ([`sum_rows_from`] and its
/// forms) over `s`-lane rows if `(q, s)` is in the shape table and `T` is
/// a 4- or 8-byte wrapping integer; returns `false`, having done nothing,
/// otherwise. Requires `base % s == 0`.
///
/// The kernels run on the element's unsigned twin through the
/// non-generic [`sum_rows_u64`] / [`sum_rows_u32`], so each shape is
/// compiled once, in this crate, instead of once per element type in
/// every crate that scans.
fn sum_rows<T: ScanElement>(sweep: Sweep<'_, T>, s: usize, state: &mut [T]) -> bool {
    match std::mem::size_of::<T>() {
        8 => match (sweep.lanes(), lanes_mut(state)) {
            (Some(sweep), Some(state)) => sum_rows_u64(sweep, s, state),
            _ => false,
        },
        4 => match (sweep.lanes(), lanes_mut(state)) {
            (Some(sweep), Some(state)) => sum_rows_u32(sweep, s, state),
            _ => false,
        },
        _ => false,
    }
}

fn sum_rows_u64(sweep: Sweep<'_, u64>, s: usize, state: &mut [u64]) -> bool {
    sum_rows_lanes(sweep, s, state)
}

fn sum_rows_u32(sweep: Sweep<'_, u32>, s: usize, state: &mut [u32]) -> bool {
    sum_rows_lanes(sweep, s, state)
}

/// Elements an in-place register sweep copies out per block.
const BOUNCE: usize = 512;

/// Runs the out-of-place sweep `from` over `data` in place, through a
/// stack bounce buffer a whole number of `s`-element rows (`s <= 8` here)
/// at a time, so
/// one kernel per shape serves both forms (which halves the code the
/// shape tables instantiate). Stops at the first `false`, which `from`
/// returns only on the first block, before writing anything.
fn in_place_via<T: ScanElement>(
    data: &mut [T],
    s: usize,
    mut from: impl FnMut(&[T], &mut [T]) -> bool,
) -> bool {
    let mut buf = [T::ZERO; BOUNCE];
    for block in data.chunks_mut(BOUNCE / s * s) {
        let src = &mut buf[..block.len()];
        src.copy_from_slice(block);
        if !from(src, block) {
            return false;
        }
    }
    true
}

fn sum_rows_lanes<T: ScanElement>(sweep: Sweep<'_, T>, s: usize, state: &mut [T]) -> bool {
    if !cascade_dispatch!(state.len() / s, s, in_row_table(state), false) {
        return false;
    }
    match sweep {
        Sweep::From { src, dst, exclusive } => rows_from(src, dst, s, state, exclusive),
        Sweep::InPlace { data, exclusive } => {
            in_place_via(data, s, |src, dst| {
                rows_from(src, dst, s, state, exclusive);
                true
            });
        }
        Sweep::Totals { src } => {
            let q = state.len() / s;
            cascade_dispatch!(q, s, sum_rows_totals(src, state), unreachable!("shape is tabled"))
        }
    }
    true
}

/// Whether a `Q x S` `state` window is in the row-sweep table: dispatch
/// reaches this only for tabled shapes.
fn in_row_table<T, const Q: usize, const S: usize>(_state: &[T]) -> bool {
    true
}

/// The from sweep of a tabled shape, either kind. The exclusive form is
/// the inclusive sweep shifted by one row: exclusive output `j` is its
/// lane's top level before element `j`, which is the initial top row for
/// `j < s` and the inclusive output of element `j - s` after that. The
/// last row's inputs then only advance the window.
fn rows_from<T: ScanElement>(src: &[T], dst: &mut [T], s: usize, state: &mut [T], exclusive: bool) {
    let q = state.len() / s;
    if !exclusive {
        cascade_dispatch!(q, s, sum_rows_from(src, dst, state), unreachable!("shape is tabled"));
        return;
    }
    let head = s.min(src.len());
    let body = src.len() - head;
    dst[..head].copy_from_slice(&state[(q - 1) * s..][..head]);
    let (src, last) = src.split_at(body);
    cascade_dispatch!(
        q,
        s,
        sum_rows_from(src, &mut dst[head..], state),
        unreachable!("shape is tabled")
    );
    cascade_totals_generic(&Sum, last, body, s, state);
}

/// Runs `sweep` as a stride-1 recurrence on a [`Linrec1`] register window
/// if the order is at most 8 and `T` is a 4- or 8-byte wrapping integer;
/// returns `false`, having done nothing, otherwise. Compiled once per lane
/// width, as [`sum_rows`].
fn linrec1<T: ScanElement>(coeffs: &[T], sweep: Sweep<'_, T>, state: &mut [T]) -> bool {
    match std::mem::size_of::<T>() {
        8 => match (lanes(coeffs), sweep.lanes(), lanes_mut(state)) {
            (Some(coeffs), Some(sweep), Some(state)) => linrec1_u64(coeffs, sweep, state),
            _ => false,
        },
        4 => match (lanes(coeffs), sweep.lanes(), lanes_mut(state)) {
            (Some(coeffs), Some(sweep), Some(state)) => linrec1_u32(coeffs, sweep, state),
            _ => false,
        },
        _ => false,
    }
}

fn linrec1_u64(coeffs: &[u64], sweep: Sweep<'_, u64>, state: &mut [u64]) -> bool {
    linrec1_lanes(coeffs, sweep, state)
}

fn linrec1_u32(coeffs: &[u32], sweep: Sweep<'_, u32>, state: &mut [u32]) -> bool {
    linrec1_lanes(coeffs, sweep, state)
}

fn linrec1_lanes<T: ScanElement>(coeffs: &[T], sweep: Sweep<'_, T>, state: &mut [T]) -> bool {
    let q = coeffs.len();
    match sweep {
        Sweep::From { src, dst, exclusive } => {
            cascade_dispatch!(q, linrec1_from(coeffs, src, dst, state, exclusive), return false)
        }
        Sweep::InPlace { data, exclusive } => {
            return in_place_via(data, 1, |src, dst| {
                cascade_dispatch!(q, linrec1_from(coeffs, src, dst, state, exclusive), return false);
                true
            });
        }
        Sweep::Totals { src } => cascade_dispatch!(q, linrec1_totals(coeffs, src, state), return false),
    }
    true
}

/// The reversed impulse response of a stride-1 linear recurrence over one
/// chunk length: the table the multi-worker engine's [`LinRec`] publish
/// sweep reduces each chunk against ([`crate::simd::linrec_totals`]).
///
/// For coefficients `c` the impulse response is `g(0) = 1`,
/// `g(m) = sum_j c_j g(m - 1 - j)`; the table holds `g(N - 1 - i)` at `i`
/// for a chunk of `N` elements, followed by `order - 1` zeros, so every
/// state row of every span of at most `N` elements is one contiguous dot
/// product against it. Kept grow-only in the engine's arena and keyed by
/// the exact coefficients and chunk length, so a warmed scanner neither
/// rebuilds nor reallocates it.
#[derive(Debug)]
pub struct ImpulseTable<T> {
    coeffs: Vec<T>,
    chunk: usize,
    rev: Vec<T>,
}

impl<T> Default for ImpulseTable<T> {
    fn default() -> Self {
        ImpulseTable {
            coeffs: Vec::new(),
            chunk: 0,
            rev: Vec::new(),
        }
    }
}

impl<T: ScanElement> ImpulseTable<T> {
    /// Builds the table for `coeffs` over chunks of `chunk` elements
    /// unless it already holds exactly that; returns whether it rebuilt.
    pub fn prepare(&mut self, coeffs: &[T], chunk: usize) -> bool {
        if self.chunk == chunk && self.coeffs == coeffs {
            return false;
        }
        let k = coeffs.len();
        self.coeffs.clear();
        self.coeffs.extend_from_slice(coeffs);
        self.chunk = chunk;
        self.rev.clear();
        self.rev.resize(chunk + k.saturating_sub(1), T::ZERO);
        // rev[chunk - 1 - m] = g(m); g(m - 1 - j) sits at chunk - m + j.
        for m in 0..chunk {
            let mut g = if m == 0 { T::ONE } else { T::ZERO };
            for (j, &c) in coeffs.iter().enumerate().take(m) {
                g = g.add(c.mul(self.rev[chunk - m + j]));
            }
            self.rev[chunk - 1 - m] = g;
        }
        true
    }

    /// The table: `chunk + order - 1` entries, as
    /// [`crate::simd::linrec_totals`] takes it.
    pub fn rev(&self) -> &[T] {
        &self.rev
    }

    /// Whether the table was built for exactly these coefficients.
    pub fn is_for(&self, coeffs: &[T]) -> bool {
        self.coeffs == coeffs
    }
}

impl<T: ScanElement> ChunkKernel<T> for LinRec<T> {
    fn supports_cascade(&self) -> bool {
        // Construction is gated on `T::EXACT_RING`, so every live value
        // supports the companion-matrix carry algebra.
        true
    }

    fn carry_weight(&self, w: u64) -> T {
        T::from_u64_wrapping(w)
    }

    fn weight_apply(&self, v: T, w: T) -> T {
        v.mul(w)
    }

    fn recurrence_coeffs(&self) -> Option<&[T]> {
        Some(self.coeffs())
    }

    fn cascade_scan_from(
        &self,
        src: &[T],
        dst: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        check_fused(src.len(), dst.len(), s);
        let c = self.coeffs();
        check_recurrence_state(state.len(), s, c.len());
        if s > 1 || !linrec1(c, Sweep::From { src, dst: &mut *dst, exclusive }, state) {
            linrec_from(c, src, dst, base, s, state, exclusive);
        }
    }

    fn cascade_scan_in_place(
        &self,
        data: &mut [T],
        base: usize,
        s: usize,
        state: &mut [T],
        exclusive: bool,
    ) {
        assert!(s > 0, "stride must be positive");
        let c = self.coeffs();
        check_recurrence_state(state.len(), s, c.len());
        if s > 1 || !linrec1(c, Sweep::InPlace { data: &mut *data, exclusive }, state) {
            linrec_in_place(c, data, base, s, state, exclusive);
        }
    }

    fn cascade_totals(&self, src: &[T], base: usize, s: usize, state: &mut [T]) {
        assert!(s > 0, "stride must be positive");
        let c = self.coeffs();
        check_recurrence_state(state.len(), s, c.len());
        if s > 1 || !linrec1(c, Sweep::Totals { src }, state) {
            linrec_totals(c, src, base, s, state);
        }
    }

    fn prepare_publish(&self, table: &mut ImpulseTable<T>, chunk_elems: usize, s: usize) -> bool {
        // Only where the dot-product reduction can run.
        let usable = s == 1
            && chunk_elems >= REDUCTION_MIN_ELEMS
            && crate::simd::linrec_reduction_available::<T>(crate::isa::resolved(), self.coeffs().len());
        usable && table.prepare(self.coeffs(), chunk_elems)
    }

    fn publish_totals(&self, src: &[T], base: usize, s: usize, state: &mut [T], table: &ImpulseTable<T>) {
        let c = self.coeffs();
        let reduced = s == 1
            && src.len() >= REDUCTION_MIN_ELEMS
            && table.is_for(c)
            && crate::simd::linrec_totals(crate::isa::resolved(), c, table.rev(), src, state);
        if !reduced {
            self.cascade_totals(src, base, s, state);
        }
    }
}

// --- Remaining standard operators: exact-semantics defaults ----------------

impl<T: ScanElement> ChunkKernel<T> for Prod {}
impl<T: ScanElement> ChunkKernel<T> for Max {}
impl<T: ScanElement> ChunkKernel<T> for Min {}
impl<T: IntElement> ChunkKernel<T> for Xor {}
impl<T: IntElement> ChunkKernel<T> for And {}
impl<T: IntElement> ChunkKernel<T> for Or {}

impl<T, F> ChunkKernel<T> for FnOp<T, F>
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
}

impl<T, Op> ChunkKernel<Packed32<T>> for SegmentedOp<Op>
where
    T: Element32,
    Op: ScanOp<T>,
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanSpec;
    use crate::serial;

    fn pseudo_random(n: usize, seed: u64) -> Vec<i64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as i64) - (1 << 30)
            })
            .collect()
    }

    /// Reference loops the kernels must match bit-for-bit.
    fn reference_inclusive<T: Copy>(op: &impl ScanOp<T>, data: &mut [T], s: usize) {
        for j in s..data.len() {
            data[j] = op.combine(data[j - s], data[j]);
        }
    }

    #[test]
    fn fused_inclusive_matches_reference_all_strides() {
        for n in [0usize, 1, 2, 15, 16, 17, 64, 1000, 1023] {
            for s in [1usize, 2, 3, 7, 16, 40] {
                let input = pseudo_random(n, 7 + n as u64 + s as u64);
                let mut expect = input.clone();
                reference_inclusive(&Sum, &mut expect, s);
                let mut dst = vec![0i64; n];
                Sum.inclusive_from(&input, &mut dst, s);
                assert_eq!(dst, expect, "n={n} s={s}");
                let mut in_place = input.clone();
                Sum.inclusive_in_place(&mut in_place, s);
                assert_eq!(in_place, expect, "in-place n={n} s={s}");
            }
        }
    }

    #[test]
    fn fused_exclusive_matches_serial_oracle() {
        for n in [0usize, 1, 5, 16, 33, 1000] {
            for s in [1usize, 3, 8] {
                let input = pseudo_random(n, 11 + n as u64 * 3 + s as u64);
                let mut expect = input.clone();
                serial::exclusive_strided_in_place(&mut expect, &Sum, s);
                let mut dst = vec![0i64; n];
                Sum.exclusive_from(&input, &mut dst, s);
                assert_eq!(dst, expect, "n={n} s={s}");
                let mut in_place = input.clone();
                Sum.exclusive_in_place(&mut in_place, s);
                assert_eq!(in_place, expect, "in-place n={n} s={s}");
            }
        }
    }

    #[test]
    fn float_kernels_bitwise_match_sequential_association() {
        // Sums of many different magnitudes: any reassociation would change
        // low-order bits somewhere in 10k elements.
        let input: Vec<f64> = pseudo_random(10_000, 99)
            .iter()
            .map(|&v| v as f64 * 1.1e-7)
            .collect();
        let mut expect = input.clone();
        reference_inclusive(&Sum, &mut expect, 1);
        let mut dst = vec![0.0f64; input.len()];
        Sum.inclusive_from(&input, &mut dst, 1);
        let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, expect_bits);
    }

    #[test]
    fn blocked_sum_matches_for_all_int_widths() {
        macro_rules! check_width {
            ($($t:ty),*) => {$(
                let input: Vec<$t> = pseudo_random(555, 5).iter().map(|&v| v as $t).collect();
                let mut expect = input.clone();
                reference_inclusive(&Sum, &mut expect, 1);
                let mut dst = vec![0 as $t; input.len()];
                Sum.inclusive_from(&input, &mut dst, 1);
                assert_eq!(dst, expect, stringify!($t));
            )*};
        }
        check_width!(i32, i64, u32, u64, u8, i16);
    }

    #[test]
    fn chunk_scan_with_totals_matches_chunkops() {
        for (n, s, base) in [(100usize, 3usize, 7usize), (40, 1, 0), (5, 8, 2), (0, 2, 9)] {
            let input = pseudo_random(n, 3 * n as u64 + s as u64 + base as u64);
            let mut expect_chunk = input.clone();
            let expect_totals =
                crate::chunkops::local_scan_with_totals(&mut expect_chunk, base, s, &Sum);

            let mut fused = vec![0i64; n];
            let mut totals = vec![0i64; s];
            Sum.scan_chunk_from(&input, &mut fused, base, s, &mut totals);
            assert_eq!(fused, expect_chunk, "n={n} s={s} base={base}");
            assert_eq!(totals, expect_totals, "n={n} s={s} base={base}");

            let mut in_place = input.clone();
            let mut totals2 = vec![0i64; s];
            Sum.scan_chunk_in_place(&mut in_place, base, s, &mut totals2);
            assert_eq!(in_place, expect_chunk);
            assert_eq!(totals2, expect_totals);
        }
    }

    #[test]
    fn rotating_apply_carry_matches_modulo_reference() {
        for (n, s, base) in [(50usize, 3usize, 4usize), (33, 1, 0), (10, 7, 13)] {
            let input = pseudo_random(n, n as u64 + 17 * s as u64);
            let carry: Vec<i64> = (0..s as i64).map(|l| 1000 * (l + 1)).collect();
            let mut expect = input.clone();
            for (j, v) in expect.iter_mut().enumerate() {
                *v = carry[(base + j) % s].wrapping_add(*v);
            }
            let mut got = input.clone();
            Sum.apply_carry(&mut got, base, &carry);
            assert_eq!(got, expect, "n={n} s={s} base={base}");
        }
    }

    #[test]
    fn exclusive_rewrite_matches_exclusive_outputs() {
        for (n, s, base) in [(23usize, 3usize, 5usize), (8, 1, 0), (4, 8, 3), (0, 2, 0)] {
            let input = pseudo_random(n, 7 * n as u64 + s as u64);
            let mut scanned = input.clone();
            reference_inclusive(&Sum, &mut scanned, s);
            let carry: Vec<i64> = (0..s as i64).map(|l| 31 * (l + 2)).collect();
            let expect = crate::chunkops::exclusive_outputs(&scanned, base, &carry, &Sum);
            let mut got = scanned.clone();
            Sum.exclusive_rewrite(&mut got, base, &carry);
            assert_eq!(got, expect, "n={n} s={s} base={base}");
        }
    }

    #[test]
    fn non_commutative_operator_uses_default_kernels() {
        // Affine-map composition (a, b) ∘ (c, d) = (a·c, b·c + d) packed in
        // u64 halves: associative, not commutative.
        let compose = FnOp::new(pack(1, 0), |x: u64, y: u64| {
            let (a1, b1) = unpack(x);
            let (a2, b2) = unpack(y);
            pack(a1.wrapping_mul(a2), b1.wrapping_mul(a2).wrapping_add(b2))
        });
        let input: Vec<u64> = (0..300u32)
            .map(|i| pack(i % 5 + 1, i.wrapping_mul(2654435761)))
            .collect();
        for s in [1usize, 3] {
            let spec = ScanSpec::inclusive().with_tuple(s).unwrap();
            let expect = serial::scan(&input, &compose, &spec);
            let mut dst = vec![0u64; input.len()];
            compose.inclusive_from(&input, &mut dst, s);
            assert_eq!(dst, expect, "s={s}");
        }
    }

    fn pack(a: u32, b: u32) -> u64 {
        (u64::from(a) << 32) | u64::from(b)
    }
    fn unpack(x: u64) -> (u32, u32) {
        ((x >> 32) as u32, x as u32)
    }

    /// Inputs past [`nt_store_min_bytes`] take the non-temporal store path;
    /// the exclusive form scans into `dst[1..]`, whose start is not 16-byte
    /// aligned, exercising the scalar alignment prologue.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nt_store_path_matches_cached_for_large_inputs() {
        let n = nt_store_min_bytes() / std::mem::size_of::<i64>() + 37;
        let input = pseudo_random(n, 21);
        let mut expect = input.clone();
        reference_inclusive(&Sum, &mut expect, 1);
        let mut dst = vec![0i64; n];
        Sum.inclusive_from(&input, &mut dst, 1);
        assert_eq!(dst, expect);

        let mut exc_expect = input.clone();
        serial::exclusive_strided_in_place(&mut exc_expect, &Sum, 1);
        let mut exc = vec![0i64; n];
        Sum.exclusive_from(&input, &mut exc, 1);
        assert_eq!(exc, exc_expect);
    }

    /// Iterated q-pass oracle for the cascade kernels (the spec they must
    /// match bit-for-bit).
    fn iterated_oracle<T: ScanElement>(input: &[T], q: usize, s: usize, exclusive: bool) -> Vec<T> {
        let mut data = input.to_vec();
        for iter in 0..q {
            if iter + 1 == q && exclusive {
                serial::exclusive_strided_in_place(&mut data, &Sum, s);
            } else {
                serial::inclusive_strided_in_place(&mut data, &Sum, s);
            }
        }
        data
    }

    #[test]
    fn cascade_matches_iterated_oracle() {
        for n in [0usize, 1, 7, 16, 100, 1000] {
            for q in [1usize, 2, 3, 5, 8, 11] {
                for s in [1usize, 2, 5, 8] {
                    for exclusive in [false, true] {
                        let input = pseudo_random(n, (n + 31 * q + s) as u64);
                        let expect = iterated_oracle(&input, q, s, exclusive);

                        let mut dst = vec![0i64; n];
                        let mut state = vec![0i64; q * s];
                        Sum.cascade_scan_from(&input, &mut dst, 0, s, &mut state, exclusive);
                        assert_eq!(dst, expect, "from n={n} q={q} s={s} exc={exclusive}");

                        let mut in_place = input.clone();
                        let mut state2 = vec![0i64; q * s];
                        Sum.cascade_scan_in_place(&mut in_place, 0, s, &mut state2, exclusive);
                        assert_eq!(in_place, expect, "in-place n={n} q={q} s={s}");
                        assert_eq!(state, state2);

                        // Totals-only sweep advances state identically.
                        let mut state3 = vec![0i64; q * s];
                        Sum.cascade_totals(&input, 0, s, &mut state3);
                        assert_eq!(state3, state, "totals n={n} q={q} s={s}");
                    }
                }
            }
        }
    }

    /// The end state after an inclusive cascade is the per-order, per-lane
    /// inclusive totals — the values the single-pass protocol publishes.
    #[test]
    fn cascade_state_is_per_order_totals() {
        let input = pseudo_random(97, 5);
        let (q, s) = (4usize, 3usize);
        let mut state = vec![0i64; q * s];
        Sum.cascade_totals(&input, 0, s, &mut state);
        let mut data = input.clone();
        for i in 0..q {
            serial::inclusive_strided_in_place(&mut data, &Sum, s);
            // Order-(i+1) total of lane l = last element of lane l.
            for l in 0..s {
                let last = (0..data.len()).rev().find(|j| j % s == l).unwrap();
                assert_eq!(state[i * s + l], data[last], "order {i} lane {l}");
            }
        }
    }

    /// Splitting a cascade at any point and resuming with the carried state
    /// gives the same outputs — chunk-boundary correctness for the
    /// single-pass engines, including unaligned (rotating-lane) resumes.
    #[test]
    fn cascade_state_resumes_across_splits() {
        let n = 231;
        let input = pseudo_random(n, 77);
        for q in [2usize, 5, 8] {
            for s in [1usize, 3, 4] {
                for split in [1usize, 8, 100, 230] {
                    for exclusive in [false, true] {
                        let expect = iterated_oracle(&input, q, s, exclusive);
                        let mut dst = vec![0i64; n];
                        let mut state = vec![0i64; q * s];
                        let (lo, hi) = input.split_at(split);
                        let (dlo, dhi) = dst.split_at_mut(split);
                        Sum.cascade_scan_from(lo, dlo, 0, s, &mut state, exclusive);
                        Sum.cascade_scan_from(hi, dhi, split, s, &mut state, exclusive);
                        assert_eq!(dst, expect, "q={q} s={s} split={split} exc={exclusive}");
                    }
                }
            }
        }
    }

    /// Vertical lane-parallel kernels and the cascade agree with the oracle
    /// for narrow widths where wrapping is constant.
    #[test]
    fn cascade_wraps_exactly_for_narrow_widths() {
        let input: Vec<u8> = (0..400u32).map(|i| (i * 97 + 13) as u8).collect();
        for q in [2usize, 8] {
            let mut expect = input.clone();
            for _ in 0..q {
                Sum.inclusive_in_place(&mut expect, 1);
            }
            let mut dst = vec![0u8; input.len()];
            let mut state = vec![0u8; q];
            Sum.cascade_scan_from(&input, &mut dst, 0, 1, &mut state, false);
            assert_eq!(dst, expect, "q={q}");
        }
    }

    #[test]
    fn lane_parallel_strided_kernels_match_reference() {
        for n in [0usize, 1, 5, 63, 64, 65, 1000] {
            for s in [2usize, 3, 8, 40, 64] {
                let input = pseudo_random(n, (3 * n + s) as u64);
                let mut expect = input.clone();
                reference_inclusive(&Sum, &mut expect, s);
                let mut dst = vec![0i64; n];
                Sum.inclusive_from(&input, &mut dst, s);
                assert_eq!(dst, expect, "inc n={n} s={s}");

                let mut exc_expect = input.clone();
                serial::exclusive_strided_in_place(&mut exc_expect, &Sum, s);
                // In-place exclusive via the vertical kernel.
                let mut exc = input.clone();
                Sum.exclusive_in_place(&mut exc, s);
                assert_eq!(exc, exc_expect, "exc n={n} s={s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cascade state")]
    fn cascade_state_shape_is_checked() {
        let mut dst = vec![0i64; 4];
        let mut state = vec![0i64; 5]; // not a multiple of s = 2
        Sum.cascade_scan_from(&[1i64, 2, 3, 4], &mut dst, 0, 2, &mut state, false);
    }

    #[test]
    #[should_panic(expected = "buffers must match")]
    fn fused_length_mismatch_panics() {
        let mut dst = vec![0i64; 3];
        Sum.inclusive_from(&[1i64, 2], &mut dst, 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let mut dst = vec![0i64; 2];
        Sum.inclusive_from(&[1i64, 2], &mut dst, 0);
    }
}
