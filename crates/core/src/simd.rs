//! Explicit SIMD and SWAR kernels behind the [`Sum`] chunk-kernel
//! dispatch.
//!
//! [`crate::chunk_kernel`]'s scalar fast paths (the blocked Hillis–Steele
//! stride-1 kernel and the vertical lane-parallel tuple kernels) are
//! written to auto-vectorize, but the paper's bandwidth-roof claim should
//! not depend on the optimizer's mood. This module provides hand-written
//! `std::arch` kernels for the wrapping-integer `Sum` cases, selected by
//! the process-wide [`Isa`] resolved in [`crate::isa`]:
//!
//! | lanes | `Isa::Swar` | `Isa::Neon` | `Isa::Avx2` | `Isa::Avx512` |
//! |---|---|---|---|---|
//! | 1–2 byte elements, stride 1 | packed `u64` word | packed `u64` word | packed `u64` word | packed `u64` word |
//! | 4/8 byte elements, stride 1 | — | 128-bit in-register scan | 256-bit in-register scan | 512-bit in-register scan |
//! | tuple rows ≥ 16 bytes | 8-byte word strips | 16-byte strips | 32-byte strips | 64-byte strips |
//! | tuple rows of 8–15 bytes | 8-byte word strips | 8-byte word strips | 8-byte word strips | 8-byte word strips |
//!
//! # The SWAR word format
//!
//! The narrow element types pack 8 (`u8`/`i8`) or 4 (`u16`/`i16`) lanes
//! into one little-endian `u64`, SingeliSort-style. A plain 64-bit add
//! would carry across lane boundaries, so lanes are added with the
//! *carry-suppressed* form
//!
//! ```text
//! add(a, b) = ((a & !H) + (b & !H)) ^ ((a ^ b) & H)
//! ```
//!
//! where `H` has only each lane's top bit set: the masked add computes
//! every lane's low bits (carries stop at the cleared top bit) and the
//! xor reconstitutes the top bit without a carry-out — exactly per-lane
//! wrapping addition. The in-word inclusive scan is then the shifted-add
//! ladder `x += x << 8w; x += x << 16w; …` (whole-lane shifts inject
//! zero lanes), and the carry of a finished word broadcasts to all lanes
//! of the next via `(x >> top) * 0x0101…01`.
//!
//! # The vertical tuple layout
//!
//! For tuple-size `s`, a span is a sequence of `s`-element *rows* and the
//! strided scan is an element-wise running sum of rows (Zhang, Wang &
//! Ross: `s` independent lanes live in `s` adjacent SIMD lanes, no
//! shuffles). Order-`q` cascades keep `q` state rows and advance each with
//! the same element-wise row add. Rows are processed in vector-width
//! strips with a scalar per-row tail, so any `s` works; sub-vector rows
//! (8–15 bytes) use one SWAR word per strip instead.
//!
//! # Publish reductions and streaming copies
//!
//! The multi-worker cascade engine publishes per-chunk totals before it
//! scans ([`crate::cpu`]). [`sum_totals`] computes stride-1 sum totals as
//! a vertical cascade over one-vector rows followed by a constant basis
//! change, and [`linrec_totals`] computes stride-1 recurrence totals as dot
//! products against the recurrence's impulse response; both are exact
//! replacements for the totals-only cascade. [`stream_copy`] and
//! [`prefetch_l2`] are the engine's streamed output sweep: full-line
//! non-temporal stores out of an L1 bounce buffer, and the next chunk
//! pulled into L2 meanwhile (DESIGN.md §17).
//!
//! # Determinism contract
//!
//! Every kernel is bit-identical to the scalar loop it replaces. All are
//! gated on [`is_wrapping_int`]: two's-complement wrapping
//! addition is exactly associative and sign-agnostic, which is what makes
//! both the reassociation and the signed/unsigned kernel sharing exact.
//! Floats and custom element types never enter (they keep the serial
//! association of [`crate::chunk_kernel`]).
//!
//! # Forced-path testing
//!
//! Every public function takes its [`Isa`] explicitly, so equivalence
//! tests can pin each family without touching the process-global
//! resolution ([`crate::isa::resolved`]) that the chunk kernels use. A
//! function returns `None`/`false` when the requested family has no
//! kernel for the shape (the caller keeps its scalar fallback):
//! [`Isa::Scalar`] always declines, [`Isa::Swar`] covers the 1–2-byte
//! stride-1 kernels and word-sized tuple rows, and the vector families
//! cover everything with rows of at least 8 bytes.
//!
//! [`Sum`]: crate::op::Sum

use crate::element::{is_wrapping_int, ScanElement};
use crate::isa::Isa;

/// Output size in bytes above which the stride-1 kernels switch to
/// non-temporal (cache-bypassing) stores on x86-64.
///
/// A cacheable store to a line not in cache first *reads* the line
/// (write-allocate), so a streaming scan moves 3 bytes per output byte.
/// Streaming stores skip the ownership read. Below this threshold the
/// output may be consumed from cache by the caller, which non-temporal
/// stores would evict; 8 MiB sits safely past the private L2 of every
/// deployment target.
///
/// Defined on every target (only the x86-64 store paths consult it, but
/// `cfg!`-guarded expressions still name it on other architectures).
///
/// This constant is the *fallback seed* only: the store paths consult
/// [`nt_store_min_bytes`], which an adaptive plan may retune at runtime
/// ([`crate::adapt`]). Retuning never changes results — it only moves the
/// point where stores switch from cacheable to streaming.
pub(crate) const NT_STORE_MIN_BYTES: usize = 8 << 20;

/// Process-wide *default seed* for the NT-store threshold; 0 means "use
/// the frozen 8 MiB constant". Kernels sit below any plan state, so the
/// default has to live here — but plans with their own tuned threshold do
/// **not** write it. They install a scoped, thread-local override
/// ([`nt_store_override`]) for the duration of their dispatch instead, so
/// two concurrent plans with conflicting converged thresholds each see
/// their own value rather than fighting over one global.
static NT_STORE_MIN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

std::thread_local! {
    /// Per-thread scoped override; 0 means "no override, consult the
    /// process default". Set only through [`nt_store_override`], which
    /// restores the previous value on drop — the engines install it on the
    /// dispatching thread and on every worker they spawn for a scan.
    static NT_STORE_TL: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The byte threshold at or above which stride-1/vertical kernels use
/// non-temporal stores, as seen by the *current thread*: an active scoped
/// override ([`nt_store_override`]) wins, then the process-wide default
/// ([`set_nt_store_min_bytes`]), then the frozen 8 MiB seed.
pub fn nt_store_min_bytes() -> usize {
    match NT_STORE_TL.with(std::cell::Cell::get) {
        0 => match NT_STORE_MIN.load(std::sync::atomic::Ordering::Relaxed) {
            0 => NT_STORE_MIN_BYTES,
            v => v,
        },
        v => v,
    }
}

/// Sets the process-wide NT-store threshold **default seed** in bytes.
/// `usize::MAX` effectively disables streaming stores; `0` restores the
/// frozen default. Safe to call at any time: the threshold only selects
/// between two bit-identical store strategies. Plans with a per-plan tuned
/// threshold should use [`nt_store_override`] instead — this setter is the
/// fallback every plan without its own override inherits.
pub fn set_nt_store_min_bytes(bytes: usize) {
    NT_STORE_MIN.store(bytes, std::sync::atomic::Ordering::Relaxed);
}

/// Installs a scoped, thread-local NT-store threshold override, returning
/// a guard that restores the previous state on drop. `0` means "no
/// override" (the guard is a no-op that leaves the thread consulting the
/// process default), so callers can thread an optional per-plan value
/// unconditionally.
///
/// Overrides nest: the guard restores whatever was active when it was
/// created. They are per-thread, so an engine spawning workers must
/// install the override on each worker thread (the [`crate::cpu`] engine
/// does).
#[must_use = "the override lasts only while the guard is alive"]
pub fn nt_store_override(bytes: usize) -> NtStoreOverride {
    let prev = NT_STORE_TL.with(|tl| {
        let prev = tl.get();
        if bytes != 0 {
            tl.set(bytes);
        }
        prev
    });
    NtStoreOverride {
        prev,
        active: bytes != 0,
    }
}

/// The calling thread's active scoped override, `0` when none — what a
/// per-scan worker pool reads on the dispatching thread to re-install the
/// plan's override on each worker it spawns.
pub(crate) fn nt_store_tl() -> usize {
    NT_STORE_TL.with(std::cell::Cell::get)
}

/// Guard of a scoped [`nt_store_override`]; restores the previous
/// thread-local threshold when dropped.
#[derive(Debug)]
pub struct NtStoreOverride {
    prev: usize,
    active: bool,
}

impl Drop for NtStoreOverride {
    fn drop(&mut self) {
        if self.active {
            let prev = self.prev;
            NT_STORE_TL.with(|tl| tl.set(prev));
        }
    }
}

// --- Public dispatch ------------------------------------------------------

/// Stride-1 inclusive sum of `src` into `dst` seeded by `carry`
/// (`dst[j] = carry + src[0] + … + src[j]`, wrapping), on the kernel
/// family `isa`. Returns the final running total, or `None` when `isa`
/// has no kernel for this element type or the running CPU cannot execute
/// it (use the scalar path).
///
/// `src` and `dst` may be the same allocation only via
/// [`stride1_in_place`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn stride1_from<T: ScanElement>(isa: Isa, src: &[T], dst: &mut [T], carry: T) -> Option<T> {
    assert_eq!(src.len(), dst.len(), "stride-1 kernel buffers must match");
    // SAFETY: disjoint borrows guarantee non-overlap; pointer variant
    // requirements documented there.
    unsafe { stride1_ptr(isa, src.as_ptr(), dst.as_mut_ptr(), src.len(), carry, true) }
}

/// In-place form of [`stride1_from`] with a zero seed: scans `data` into
/// itself (`data[j] = data[0] + … + data[j]`, wrapping). Returns the final
/// running total, or `None` when `isa` has no kernel for this element
/// type or is unavailable on the running CPU.
pub fn stride1_in_place<T: ScanElement>(isa: Isa, data: &mut [T]) -> Option<T> {
    let p = data.as_mut_ptr();
    // SAFETY: every kernel loads a block before storing it, so src == dst
    // aliasing is fine; in-place never uses non-temporal stores.
    unsafe { stride1_ptr(isa, p, p, data.len(), T::ZERO, false) }
}

/// The shared pointer-level stride-1 dispatch.
///
/// # Safety
///
/// `src` and `dst` must each be valid for `n` elements and either equal or
/// non-overlapping. `allow_nt` must be false when they are equal.
unsafe fn stride1_ptr<T: ScanElement>(
    isa: Isa,
    src: *const T,
    dst: *mut T,
    n: usize,
    carry: T,
    allow_nt: bool,
) -> Option<T> {
    // `is_available` also guards soundness: the vector arms below jump into
    // `#[target_feature]` kernels, so an ISA the CPU cannot execute must
    // decline here rather than fault (callers may pass any `Isa`).
    if !is_wrapping_int::<T>() || isa == Isa::Scalar || !isa.is_available() {
        return None;
    }
    let _ = allow_nt;
    match std::mem::size_of::<T>() {
        1 | 2 if cfg!(target_endian = "little") => {
            let w = std::mem::size_of::<T>();
            let c0 = lane_bits_of(carry);
            let c = if w == 1 {
                swar_scan::<1>(src.cast(), dst.cast(), n, c0)
            } else {
                swar_scan::<2>(src.cast(), dst.cast(), n, c0)
            };
            Some(lane_of_bits(c))
        }
        #[cfg(target_arch = "x86_64")]
        4 if matches!(isa, Isa::Avx2 | Isa::Avx512) => {
            let nt = allow_nt && n * 4 >= nt_store_min_bytes();
            let c0 = lane_bits_of(carry) as u32;
            let c = match (isa, nt) {
                (Isa::Avx2, false) => x86::scan_w4_avx2::<false>(src.cast(), dst.cast(), n, c0),
                (Isa::Avx2, true) => x86::scan_w4_avx2::<true>(src.cast(), dst.cast(), n, c0),
                (_, false) => x86::scan_w4_avx512::<false>(src.cast(), dst.cast(), n, c0),
                (_, true) => x86::scan_w4_avx512::<true>(src.cast(), dst.cast(), n, c0),
            };
            Some(lane_of_bits(u64::from(c)))
        }
        #[cfg(target_arch = "x86_64")]
        8 if matches!(isa, Isa::Avx2 | Isa::Avx512) => {
            let nt = allow_nt && n * 8 >= nt_store_min_bytes();
            let c0 = lane_bits_of(carry);
            let c = match (isa, nt) {
                (Isa::Avx2, false) => x86::scan_w8_avx2::<false>(src.cast(), dst.cast(), n, c0),
                (Isa::Avx2, true) => x86::scan_w8_avx2::<true>(src.cast(), dst.cast(), n, c0),
                (_, false) => x86::scan_w8_avx512::<false>(src.cast(), dst.cast(), n, c0),
                (_, true) => x86::scan_w8_avx512::<true>(src.cast(), dst.cast(), n, c0),
            };
            Some(lane_of_bits(c))
        }
        #[cfg(target_arch = "aarch64")]
        4 if isa == Isa::Neon => {
            let c0 = lane_bits_of(carry) as u32;
            let c = arm::scan_w4_neon(src.cast(), dst.cast(), n, c0);
            Some(lane_of_bits(u64::from(c)))
        }
        #[cfg(target_arch = "aarch64")]
        8 if isa == Isa::Neon => {
            let c0 = lane_bits_of(carry);
            let c = arm::scan_w8_neon(src.cast(), dst.cast(), n, c0);
            Some(lane_of_bits(c))
        }
        _ => None,
    }
}

/// Vertical (tuple-row) order-`q` cascade of `src` into `dst`, seeded by
/// and updating the `q x s` row-major `state` — the SIMD form of
/// [`crate::chunk_kernel`]'s vertical kernels, valid for spans whose
/// global base offset is a multiple of `s`. Returns `false` when `isa`
/// has no kernel for this shape or is unavailable on the running CPU
/// (use the scalar path).
///
/// # Panics
///
/// Panics if the slices differ in length, `s` is zero, or `state.len()`
/// is not a positive multiple of `s`.
pub fn vertical_from<T: ScanElement>(
    isa: Isa,
    src: &[T],
    dst: &mut [T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) -> bool {
    assert_eq!(src.len(), dst.len(), "vertical kernel buffers must match");
    check_vertical(s, state.len());
    let (rows, q) = (src.len() / s, state.len() / s);
    let op = VertOp::From {
        src: src.as_ptr().cast(),
        dst: dst.as_mut_ptr().cast(),
        exclusive,
    };
    if !vert_dispatch::<T>(isa, op, rows, s, state.as_mut_ptr().cast(), q) {
        return false;
    }
    // Partial final row: lane l = position offset, still base-aligned.
    let done = rows * s;
    let top = (q - 1) * s;
    for (l, (&x, d)) in src[done..].iter().zip(&mut dst[done..]).enumerate() {
        let out_prev = state[top + l];
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
        *d = if exclusive { out_prev } else { state[top + l] };
    }
    true
}

/// In-place form of [`vertical_from`]. Returns `false` when `isa` has no
/// kernel for this shape or is unavailable on the running CPU.
///
/// # Panics
///
/// Panics if `s` is zero or `state.len()` is not a positive multiple of
/// `s`.
pub fn vertical_in_place<T: ScanElement>(
    isa: Isa,
    data: &mut [T],
    s: usize,
    state: &mut [T],
    exclusive: bool,
) -> bool {
    check_vertical(s, state.len());
    let (rows, q) = (data.len() / s, state.len() / s);
    let op = VertOp::InPlace {
        data: data.as_mut_ptr().cast(),
        exclusive,
    };
    if !vert_dispatch::<T>(isa, op, rows, s, state.as_mut_ptr().cast(), q) {
        return false;
    }
    let done = rows * s;
    let top = (q - 1) * s;
    for (l, v) in data[done..].iter_mut().enumerate() {
        let x = *v;
        let out_prev = state[top + l];
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
        *v = if exclusive { out_prev } else { state[top + l] };
    }
    true
}

/// Totals-only form of [`vertical_from`]: advances `state` over `src`
/// without writing outputs (the single-pass publish sweep). Returns
/// `false` when `isa` has no kernel for this shape or is unavailable on
/// the running CPU.
///
/// # Panics
///
/// Panics if `s` is zero or `state.len()` is not a positive multiple of
/// `s`.
pub fn vertical_totals<T: ScanElement>(
    isa: Isa,
    src: &[T],
    s: usize,
    state: &mut [T],
) -> bool {
    check_vertical(s, state.len());
    let (rows, q) = (src.len() / s, state.len() / s);
    let op = VertOp::Totals {
        src: src.as_ptr().cast(),
    };
    if !vert_dispatch::<T>(isa, op, rows, s, state.as_mut_ptr().cast(), q) {
        return false;
    }
    let done = rows * s;
    for (l, &x) in src[done..].iter().enumerate() {
        state[l] = state[l].add(x);
        for i in 1..q {
            state[i * s + l] = state[i * s + l].add(state[(i - 1) * s + l]);
        }
    }
    true
}

fn check_vertical(s: usize, state_len: usize) {
    assert!(s > 0, "stride must be positive");
    assert!(
        state_len > 0 && state_len.is_multiple_of(s),
        "vertical state must be a positive q x s matrix ({state_len} % {s})"
    );
}

/// Which vertical sweep to run (full rows only; tails stay in the safe
/// wrappers).
#[derive(Clone, Copy)]
enum VertOp {
    From {
        src: *const u8,
        dst: *mut u8,
        exclusive: bool,
    },
    InPlace {
        data: *mut u8,
        exclusive: bool,
    },
    Totals {
        src: *const u8,
    },
}

/// Routes a vertical sweep to the widest family kernel `isa` admits for
/// rows of `s * size_of::<T>()` bytes. Rows of 8–15 bytes use the SWAR
/// word family under every non-scalar ISA; smaller rows decline.
fn vert_dispatch<T: ScanElement>(
    isa: Isa,
    op: VertOp,
    rows: usize,
    s: usize,
    state: *mut u8,
    q: usize,
) -> bool {
    // As in `stride1_ptr`, `is_available` keeps unavailable vector families
    // from reaching their `#[target_feature]` kernels.
    if !is_wrapping_int::<T>() || isa == Isa::Scalar || !isa.is_available() {
        return false;
    }
    let b = s * std::mem::size_of::<T>();
    if b < 8 {
        return false;
    }
    // Order-1 small rows: the running row fits in registers, turning the
    // row-to-row dependency into a 1-cycle add chain (the strip kernels
    // below chain through memory, which is store-to-load latency bound
    // when a row is only a few elements).
    if q == 1 && b <= SMALL_ROW_MAX_BYTES && b.is_multiple_of(8) {
        return small_dispatch(std::mem::size_of::<T>(), op, rows, b, state);
    }
    macro_rules! go {
        ($runner:ident) => {
            match std::mem::size_of::<T>() {
                1 => unsafe { $runner::<1>(op, rows, b, state, q) },
                2 => unsafe { $runner::<2>(op, rows, b, state, q) },
                4 => unsafe { $runner::<4>(op, rows, b, state, q) },
                8 => unsafe { $runner::<8>(op, rows, b, state, q) },
                _ => return false,
            }
        };
    }
    match isa {
        Isa::Scalar => return false,
        _ if b < 16 => go!(run_vert_swar),
        Isa::Swar => go!(run_vert_swar),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => go!(run_vert_avx2),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => go!(run_vert_avx512),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => go!(run_vert_neon),
        // A vector family this target cannot even compile kernels for
        // (e.g. NEON on x86): decline, callers keep the scalar path.
        #[allow(unreachable_patterns)]
        _ => return false,
    }
    true
}

// --- Publish reductions and the streamed output sweep ---------------------

/// Largest cascade order the publish reductions cover (the register
/// window of `q` vectors; larger orders keep the scalar kernels).
const REDUCTION_MAX_Q: usize = 8;

/// Columns of the publish reductions on `isa` for `bytes`-wide lanes: one
/// vector of lanes (8 `u64` or 16 `u32` on AVX-512, 4 `u64` or 8 `u32` on
/// AVX2), or `None` where the family keeps the scalar kernels.
fn reduction_columns(isa: Isa, bytes: usize) -> Option<usize> {
    if !matches!(bytes, 4 | 8) || !isa.is_available() {
        return None;
    }
    match isa {
        Isa::Avx512 => Some(64 / bytes),
        Isa::Avx2 => Some(32 / bytes),
        _ => None,
    }
}

/// The [`crate::carry::column_basis`] table of one `(q, w)`, built once per
/// process (`q` in `1..=8`, `w` in `{4, 8, 16}`).
fn cached_column_basis(q: usize, w: usize) -> &'static [u64] {
    use std::sync::OnceLock;
    static TABLES: [OnceLock<Box<[u64]>>; REDUCTION_MAX_Q * 3] =
        [const { OnceLock::new() }; REDUCTION_MAX_Q * 3];
    let slot = (q - 1) * 3 + (w.trailing_zeros() as usize - 2);
    TABLES[slot].get_or_init(|| crate::carry::column_basis(q, w).into_boxed_slice())
}

/// Stride-1 order-`q` cascade totals (`q = state.len()`): advances `state`
/// over `src` exactly as `chunk_kernel::reference::cascade_totals` does
/// with `s = 1`, as a `w`-column reduction.
///
/// The zero-seeded vertical cascade runs over `w`-element rows with the
/// `q x w` window in vector registers — `q` vector adds per `w` elements
/// instead of `q` dependent scalar adds per element — and the column
/// totals map to the stride-1 totals through the constant basis change of
/// [`crate::carry::column_basis`]. A non-zero seed is advanced across the
/// rows by the binomial weights of [`crate::carry`]; the last `len % w`
/// elements take the scalar cascade. Bit-identical to the reference for
/// every 4- and 8-byte wrapping integer type.
///
/// Returns `false`, having done nothing, when `isa` has no reduction (only
/// AVX2 and AVX-512 have one) or is unavailable on the running CPU, `T` is
/// not a 4- or 8-byte primitive integer, or `q` is outside `2..=8`.
pub fn sum_totals<T: ScanElement>(isa: Isa, src: &[T], state: &mut [T]) -> bool {
    let q = state.len();
    let bytes = std::mem::size_of::<T>();
    if !is_wrapping_int::<T>() || !(2..=REDUCTION_MAX_Q).contains(&q) {
        return false;
    }
    let Some(w) = reduction_columns(isa, bytes) else {
        return false;
    };
    let rows = src.len() / w;
    // The q x w column totals, one 64-byte vector per order.
    let mut cols = [0u8; REDUCTION_MAX_Q * 64];
    // SAFETY: `reduction_columns` checked the family is available and the
    // lane width; `src` holds `rows * w` lanes, `cols` has room for `q`
    // vectors.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::column_cascade(isa, bytes, q, src.as_ptr().cast(), rows, cols.as_mut_ptr());
    }
    let col = |k: usize, c: usize| {
        let p = cols[k * 64 + c * bytes..].as_ptr();
        // SAFETY: in bounds of `cols` (k < q, c < w = 64 / bytes or less).
        unsafe {
            if bytes == 8 {
                lane_load::<8>(p)
            } else {
                lane_load::<4>(p)
            }
        }
    };
    let basis = cached_column_basis(q, w);
    let mut seed = [0u64; REDUCTION_MAX_Q];
    for (s, &v) in seed.iter_mut().zip(state.iter()) {
        *s = lane_bits_of(v);
    }
    let seeded = seed.iter().any(|&v| v != 0);
    let span = (rows * w) as u128;
    let mut next = [0u64; REDUCTION_MAX_Q];
    for (j, t) in next.iter_mut().enumerate().take(q) {
        for k in 0..=j {
            let row = &basis[(j * q + k) * w..][..w];
            for (c, &a) in row.iter().enumerate() {
                *t = t.wrapping_add(a.wrapping_mul(col(k, c)));
            }
            if seeded {
                // Seed order k advanced across `span` zero elements to
                // order j: weight C(span + (j - k) - 1, j - k).
                let d = j - k;
                let weight = if d == 0 {
                    1
                } else {
                    crate::carry::binomial_mod_2_64(span + d as u128 - 1, d as u32)
                };
                *t = t.wrapping_add(seed[k].wrapping_mul(weight));
            }
        }
    }
    for (s, &v) in state.iter_mut().zip(&next) {
        *s = lane_of_bits(v);
    }
    for &x in &src[rows * w..] {
        state[0] = state[0].add(x);
        for i in 1..q {
            state[i] = state[i].add(state[i - 1]);
        }
    }
    true
}

/// Stride-1 order-`k` linear-recurrence totals (`k = state.len()`):
/// advances `state` over `src` exactly as
/// `chunk_kernel::reference::linrec_totals` does with `s = 1`, as `k`
/// shifted dot products against `table`, the reversed impulse response
/// of the recurrence over a span of `table.len() - k + 1` elements (see
/// [`crate::chunk_kernel::ImpulseTable`]).
///
/// The zero-seeded end state is `x_{L-1-j} = sum_t src[t] * g(L-1-j-t)`
/// for the impulse response `g`, so with `rev[i] = g(N-1-i)` (zero past
/// `N - 1`) for the table span `N`, state row `j` is the dot product of
/// `src` with `rev[N - L + j..]`: a span shorter than the table reads it
/// at an offset. A non-zero seed enters as the equivalent input it feeds
/// the first `k` elements. Bit-identical to the reference for every 4- and
/// 8-byte wrapping integer type.
///
/// Returns `false`, having done nothing, when `isa` is not an available
/// AVX-512 family with the 64-bit vector multiply (AVX-512DQ; the other
/// families keep the two-elements-per-step register window), when `T` is
/// not a 4- or 8-byte primitive integer, `k` is outside `1..=8`, `table`
/// is not a table for `k` coefficients over at least `src.len()`
/// elements, or `src` is shorter than `k`.
pub fn linrec_totals<T: ScanElement>(isa: Isa, coeffs: &[T], table: &[T], src: &[T], state: &mut [T]) -> bool {
    let k = state.len();
    let bytes = std::mem::size_of::<T>();
    let n = src.len();
    if !linrec_reduction_available::<T>(isa, k) || coeffs.len() != k || n < k || table.len() + 1 < n + k {
        return false;
    }
    let off = table.len() + 1 - k - n;
    let rev = &table[off..];
    let mut dots = [0u64; REDUCTION_MAX_Q];
    // SAFETY: the family and its multiply are available; `rev` holds
    // `n + k - 1` lanes, so every shifted window of `n` lanes is in bounds.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::impulse_dots(bytes, k, src.as_ptr().cast(), n, rev.as_ptr().cast(), &mut dots);
    }
    // The seed window (row 0 most recent) feeds element t < k the input
    // sum_{j >= t} c_j * w_{j - t}; add its response.
    for t in 0..k {
        let mut e = T::ZERO;
        for j in t..k {
            e = e.add(coeffs[j].mul(state[j - t]));
        }
        let e = lane_bits_of(e);
        if e != 0 {
            for (j, d) in dots.iter_mut().enumerate().take(k) {
                *d = d.wrapping_add(e.wrapping_mul(lane_bits_of(rev[t + j])));
            }
        }
    }
    for (s, &d) in state.iter_mut().zip(&dots) {
        *s = lane_of_bits(d);
    }
    true
}

/// Whether [`linrec_totals`] has a kernel for order-`k` recurrences over
/// `T` on `isa` on the running CPU.
pub fn linrec_reduction_available<T: 'static>(isa: Isa, k: usize) -> bool {
    is_wrapping_int::<T>()
        && (1..=REDUCTION_MAX_Q).contains(&k)
        && isa == Isa::Avx512
        && reduction_columns(isa, std::mem::size_of::<T>()).is_some()
        && has_vector_mul64()
}

/// Whether the running CPU has the AVX-512DQ 64-bit lane multiply.
fn has_vector_mul64() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `isa` has the full-line streaming stores [`stream_copy`] uses
/// (AVX2 and AVX-512, when the running CPU has them).
pub fn has_stream_stores(isa: Isa) -> bool {
    cfg!(target_arch = "x86_64") && matches!(isa, Isa::Avx2 | Isa::Avx512) && isa.is_available()
}

/// Copies `src` into `dst` with non-temporal stores for every whole
/// 64-byte line of `dst`, and ordinary stores for the partial lines at
/// either end — the stride-1 kernels' streaming-store idiom as a block
/// copy, for the multi-worker engine's streamed output sweep. The stores
/// are weakly ordered: call [`stream_fence`] before publishing the data to
/// another thread. Falls back to a plain copy where `isa` has no streaming
/// stores ([`has_stream_stores`]) or the element size does not divide a
/// line.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn stream_copy<T: Copy>(isa: Isa, src: &[T], dst: &mut [T]) {
    assert_eq!(src.len(), dst.len(), "stream copy buffers must match");
    let size = std::mem::size_of::<T>();
    if !has_stream_stores(isa) || size == 0 || 64 % size != 0 {
        dst.copy_from_slice(src);
        return;
    }
    let head = dst.as_ptr().align_offset(64).min(dst.len());
    let lines = (dst.len() - head) * size / 64;
    let body = lines * 64 / size;
    dst[..head].copy_from_slice(&src[..head]);
    // SAFETY: `dst[head..]` is 64-byte aligned and holds `lines` whole
    // lines; `src` is valid for the same bytes; the family is available.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        let (s, d) = (src[head..].as_ptr().cast::<u8>(), dst[head..].as_mut_ptr().cast::<u8>());
        if isa == Isa::Avx512 {
            x86::stream_lines_avx512(s, d, lines);
        } else {
            x86::stream_lines_avx2(s, d, lines);
        }
    }
    dst[head + body..].copy_from_slice(&src[head + body..]);
}

/// Orders every earlier [`stream_copy`] store of this thread before its
/// later stores (`sfence`); a no-op where there are no streaming stores.
pub fn stream_fence() {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `sfence` is baseline x86-64.
    unsafe {
        std::arch::x86_64::_mm_sfence();
    }
}

/// Prefetches every cache line of `data` into the L2 cache (`prefetcht1`)
/// where the target has a prefetch hint; a no-op elsewhere. Never faults.
pub fn prefetch_l2<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        let p = data.as_ptr().cast::<u8>();
        let bytes = std::mem::size_of_val(data);
        for off in (0..bytes).step_by(64) {
            // SAFETY: a prefetch never faults; `off` is in bounds.
            unsafe {
                std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T1 }>(
                    p.add(off).cast(),
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
}

// --- Scalar lane helpers ---------------------------------------------------

/// The wrapping-int element's bits as a `u64` lane value (low
/// `size_of::<T>()` bytes).
fn lane_bits_of<T: ScanElement>(v: T) -> u64 {
    // SAFETY: callers gate on `is_wrapping_int::<T>()`, so T is one of the primitive
    // integer types of the matched width.
    unsafe {
        match std::mem::size_of::<T>() {
            1 => u64::from(std::mem::transmute_copy::<T, u8>(&v)),
            2 => u64::from(std::mem::transmute_copy::<T, u16>(&v)),
            4 => u64::from(std::mem::transmute_copy::<T, u32>(&v)),
            8 => std::mem::transmute_copy::<T, u64>(&v),
            w => unreachable!("unsupported lane width {w}"),
        }
    }
}

/// Inverse of [`lane_bits_of`].
fn lane_of_bits<T: ScanElement>(bits: u64) -> T {
    // SAFETY: as in `lane_bits_of`.
    unsafe {
        match std::mem::size_of::<T>() {
            1 => std::mem::transmute_copy::<u8, T>(&(bits as u8)),
            2 => std::mem::transmute_copy::<u16, T>(&(bits as u16)),
            4 => std::mem::transmute_copy::<u32, T>(&(bits as u32)),
            8 => std::mem::transmute_copy::<u64, T>(&bits),
            w => unreachable!("unsupported lane width {w}"),
        }
    }
}

/// Loads one width-`W` lane from a byte pointer (native byte order).
#[inline(always)]
unsafe fn lane_load<const W: usize>(p: *const u8) -> u64 {
    match W {
        1 => u64::from(*p),
        2 => u64::from(p.cast::<u16>().read_unaligned()),
        4 => u64::from(p.cast::<u32>().read_unaligned()),
        8 => p.cast::<u64>().read_unaligned(),
        _ => unreachable!(),
    }
}

/// Stores one width-`W` lane to a byte pointer (native byte order).
#[inline(always)]
unsafe fn lane_store<const W: usize>(p: *mut u8, v: u64) {
    match W {
        1 => *p = v as u8,
        2 => p.cast::<u16>().write_unaligned(v as u16),
        4 => p.cast::<u32>().write_unaligned(v as u32),
        8 => p.cast::<u64>().write_unaligned(v),
        _ => unreachable!(),
    }
}

/// Width-`W` wrapping lane addition on `u64`-held lane values.
#[inline(always)]
fn lane_add<const W: usize>(a: u64, b: u64) -> u64 {
    match W {
        1 => u64::from((a as u8).wrapping_add(b as u8)),
        2 => u64::from((a as u16).wrapping_add(b as u16)),
        4 => u64::from((a as u32).wrapping_add(b as u32)),
        8 => a.wrapping_add(b),
        _ => unreachable!(),
    }
}

// --- SWAR packed-word kernels ----------------------------------------------

/// Per-lane top-bit mask for width-`W` lanes packed in a `u64`.
#[inline(always)]
const fn swar_high_mask<const W: usize>() -> u64 {
    match W {
        1 => 0x8080_8080_8080_8080,
        2 => 0x8000_8000_8000_8000,
        4 => 0x8000_0000_8000_0000,
        _ => 0, // W == 8: unused, plain wrapping add
    }
}

/// Per-lane wrapping add of two packed words (the carry-suppressed form;
/// see the module docs for why carries cannot cross lanes).
#[inline(always)]
fn swar_word_add<const W: usize>(a: u64, b: u64) -> u64 {
    if W == 8 {
        return a.wrapping_add(b);
    }
    let h = swar_high_mask::<W>();
    ((a & !h).wrapping_add(b & !h)) ^ ((a ^ b) & h)
}

/// Stride-1 inclusive scan of `n` width-`W` lanes (`W` = 1 or 2) with the
/// packed-word ladder; little-endian only (lane order == byte order).
/// `carry0` is the seed lane value; returns the final running total.
///
/// # Safety
///
/// `src`/`dst` valid for `n * W` bytes; equal or non-overlapping.
unsafe fn swar_scan<const W: usize>(src: *const u8, dst: *mut u8, n: usize, carry0: u64) -> u64 {
    debug_assert!(W == 1 || W == 2);
    let lanes = 8 / W;
    let bcast: u64 = if W == 1 { 0x0101_0101_0101_0101 } else { 0x0001_0001_0001_0001 };
    let top_shift = (64 - 8 * W) as u32;
    let mut cb = carry0.wrapping_mul(bcast);
    let words = n / lanes;
    for w in 0..words {
        let x = src.add(w * 8).cast::<u64>().read_unaligned();
        let mut p = swar_word_add::<W>(x, x << (8 * W));
        p = swar_word_add::<W>(p, p << (16 * W));
        if W == 1 {
            p = swar_word_add::<W>(p, p << 32);
        }
        p = swar_word_add::<W>(p, cb);
        dst.add(w * 8).cast::<u64>().write_unaligned(p);
        cb = (p >> top_shift).wrapping_mul(bcast);
    }
    let mut c = cb >> top_shift; // any lane; all equal
    for j in words * lanes..n {
        c = lane_add::<W>(c, lane_load::<W>(src.add(j * W)));
        lane_store::<W>(dst.add(j * W), c);
    }
    c
}

// --- Register-resident small-row vertical sweeps ----------------------------

/// Largest row (bytes) the order-1 register-resident sweep covers: 8 `u64`
/// lane words. Past this, a row has enough elements that the strip
/// kernels' store-to-load row chain is amortized.
const SMALL_ROW_MAX_BYTES: usize = 64;

/// One lane-word store of the small-row sweep. With `NT` (x86-64 only,
/// dispatcher-gated) it is a `movnti` streaming store — the destination
/// must then be 8-byte aligned, and the sweep ends with an `sfence`.
#[inline(always)]
unsafe fn small_store<const NT: bool>(p: *mut u8, v: u64) {
    #[cfg(target_arch = "x86_64")]
    if NT {
        std::arch::x86_64::_mm_stream_si64(p.cast::<i64>(), v as i64);
        return;
    }
    p.cast::<u64>().write_unaligned(v);
}

/// Order-1 vertical sweep with the running row held in `WORDS` `u64` lane
/// words (per-lane adds via [`swar_word_add`], which is a plain add for
/// `W == 8`). `src` may equal `dst` (each word is loaded before its
/// position is stored).
///
/// # Safety
///
/// `src`/`dst` valid for `rows * WORDS * 8` bytes and equal or
/// non-overlapping; `state` valid for `WORDS * 8` bytes, overlapping
/// neither. With `NT`, `dst` must be 8-byte aligned and distinct from
/// `src` (the dispatcher only sets it for out-of-place sweeps past the
/// non-temporal threshold, where eliding the destination's
/// read-for-ownership pays like it does on the stride-1 kernels).
unsafe fn small_from<const W: usize, const WORDS: usize, const NT: bool>(
    src: *const u8,
    dst: *mut u8,
    rows: usize,
    state: *mut u8,
    exclusive: bool,
) {
    let b = WORDS * 8;
    let mut acc = [0u64; WORDS];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = state.add(k * 8).cast::<u64>().read_unaligned();
    }
    for r in 0..rows {
        let srow = src.add(r * b);
        let drow = dst.add(r * b);
        #[cfg(target_arch = "x86_64")]
        if NT {
            // Streaming stores starve the hardware prefetcher's load
            // stream here exactly as they do on the stride-1 kernels.
            x86::prefetch_src(srow);
        }
        for (k, a) in acc.iter_mut().enumerate() {
            let x = srow.add(k * 8).cast::<u64>().read_unaligned();
            if exclusive {
                small_store::<NT>(drow.add(k * 8), *a);
                *a = swar_word_add::<W>(*a, x);
            } else {
                *a = swar_word_add::<W>(*a, x);
                small_store::<NT>(drow.add(k * 8), *a);
            }
        }
    }
    #[cfg(target_arch = "x86_64")]
    if NT {
        std::arch::x86_64::_mm_sfence();
    }
    for (k, a) in acc.iter().enumerate() {
        state.add(k * 8).cast::<u64>().write_unaligned(*a);
    }
}

/// Totals-only form of [`small_from`].
///
/// # Safety
///
/// As [`small_from`], without a destination.
unsafe fn small_totals<const W: usize, const WORDS: usize>(
    src: *const u8,
    rows: usize,
    state: *mut u8,
) {
    let b = WORDS * 8;
    let mut acc = [0u64; WORDS];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = state.add(k * 8).cast::<u64>().read_unaligned();
    }
    for r in 0..rows {
        for (k, a) in acc.iter_mut().enumerate() {
            let x = src.add(r * b + k * 8).cast::<u64>().read_unaligned();
            *a = swar_word_add::<W>(*a, x);
        }
    }
    for (k, a) in acc.iter().enumerate() {
        state.add(k * 8).cast::<u64>().write_unaligned(*a);
    }
}

/// Routes a small-row order-1 sweep to the `(W, WORDS)` monomorphization
/// (const word count keeps the accumulators in registers). `false` if the
/// shape has no such kernel.
fn small_dispatch(width: usize, op: VertOp, rows: usize, b: usize, state: *mut u8) -> bool {
    #[inline(always)]
    unsafe fn run<const W: usize, const WORDS: usize>(op: VertOp, rows: usize, state: *mut u8) {
        match op {
            VertOp::From { src, dst, exclusive } => {
                // `movnti` needs an 8-aligned destination and there is no
                // row-granular way to align first (rows advance in `b`-byte
                // strides), so unaligned destinations keep cacheable stores.
                if cfg!(target_arch = "x86_64")
                    && rows * WORDS * 8 >= nt_store_min_bytes()
                    && (dst as usize).is_multiple_of(8)
                {
                    small_from::<W, WORDS, true>(src, dst, rows, state, exclusive)
                } else {
                    small_from::<W, WORDS, false>(src, dst, rows, state, exclusive)
                }
            }
            // In-place just read the line; there is no ownership read for
            // a streaming store to elide.
            VertOp::InPlace { data, exclusive } => {
                small_from::<W, WORDS, false>(data.cast_const(), data, rows, state, exclusive)
            }
            VertOp::Totals { src } => small_totals::<W, WORDS>(src, rows, state),
        }
    }
    macro_rules! by_words {
        ($W:expr) => {
            // SAFETY: caller (the safe vertical wrappers) validated the
            // buffer shapes; `b / 8` words of 8 bytes cover each row.
            match b / 8 {
                1 => unsafe { run::<$W, 1>(op, rows, state) },
                2 => unsafe { run::<$W, 2>(op, rows, state) },
                3 => unsafe { run::<$W, 3>(op, rows, state) },
                4 => unsafe { run::<$W, 4>(op, rows, state) },
                5 => unsafe { run::<$W, 5>(op, rows, state) },
                6 => unsafe { run::<$W, 6>(op, rows, state) },
                7 => unsafe { run::<$W, 7>(op, rows, state) },
                8 => unsafe { run::<$W, 8>(op, rows, state) },
                _ => return false,
            }
        };
    }
    match width {
        1 => by_words!(1),
        2 => by_words!(2),
        4 => by_words!(4),
        8 => by_words!(8),
        _ => return false,
    }
    true
}

// --- Row primitives and the vertical sweeps --------------------------------

/// Element-wise row operations a vector family provides; every method is
/// `#[inline(always)]` so the `#[target_feature]` entry wrappers compile
/// them with the family's features enabled.
trait RowOps {
    /// `dst[l] = a[l] + b[l]` for `bytes / W` width-`W` lanes. `dst` may
    /// alias `a` or `b` (each strip is fully loaded before it is stored).
    ///
    /// # Safety
    ///
    /// Pointers valid for `bytes` bytes; the family's ISA available.
    unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize);

    /// The exclusive-rewrite step, strip-wise:
    /// `d = *data; *data = *top; *acc = *acc + d`. `top` may alias `acc`
    /// (each strip loads `top` before storing `acc`); `data` is distinct.
    ///
    /// # Safety
    ///
    /// Pointers valid for `bytes` bytes; the family's ISA available.
    unsafe fn exc_step<const W: usize>(data: *mut u8, top: *const u8, acc: *mut u8, bytes: usize);
}

/// Scalar remainder shared by every family's strip loops.
#[inline(always)]
unsafe fn scalar_add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, mut off: usize, bytes: usize) {
    while off < bytes {
        let v = lane_add::<W>(lane_load::<W>(a.add(off)), lane_load::<W>(b.add(off)));
        lane_store::<W>(dst.add(off), v);
        off += W;
    }
}

/// Scalar remainder of [`RowOps::exc_step`].
#[inline(always)]
unsafe fn scalar_exc_step<const W: usize>(
    data: *mut u8,
    top: *const u8,
    acc: *mut u8,
    mut off: usize,
    bytes: usize,
) {
    while off < bytes {
        let d = lane_load::<W>(data.add(off));
        lane_store::<W>(data.add(off), lane_load::<W>(top.add(off)));
        let s0 = lane_load::<W>(acc.add(off));
        lane_store::<W>(acc.add(off), lane_add::<W>(s0, d));
        off += W;
    }
}

/// The SWAR row family: 8-byte packed-word strips. Works on every target
/// and serves sub-vector rows (8–15 bytes) under the vector ISAs too.
struct SwarRows;

impl RowOps for SwarRows {
    #[inline(always)]
    unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
        let mut off = 0;
        while off + 8 <= bytes {
            let va = a.add(off).cast::<u64>().read_unaligned();
            let vb = b.add(off).cast::<u64>().read_unaligned();
            dst.add(off).cast::<u64>().write_unaligned(swar_word_add::<W>(va, vb));
            off += 8;
        }
        scalar_add2::<W>(dst, a, b, off, bytes);
    }

    #[inline(always)]
    unsafe fn exc_step<const W: usize>(data: *mut u8, top: *const u8, acc: *mut u8, bytes: usize) {
        let mut off = 0;
        while off + 8 <= bytes {
            let d = data.add(off).cast::<u64>().read_unaligned();
            let t = top.add(off).cast::<u64>().read_unaligned();
            data.add(off).cast::<u64>().write_unaligned(t);
            let s0 = acc.add(off).cast::<u64>().read_unaligned();
            acc.add(off).cast::<u64>().write_unaligned(swar_word_add::<W>(s0, d));
            off += 8;
        }
        scalar_exc_step::<W>(data, top, acc, off, bytes);
    }
}

/// Full-row vertical cascade, reading `src` and writing `dst`
/// (the tail rows stay in the safe wrappers).
///
/// Order-1 sweeps use the output itself as the running row (each row is
/// the previous output row plus the matching input row — the same left
/// association, one load and one store per element); higher orders walk
/// the `q` state rows per input row.
#[inline(always)]
unsafe fn vertical_from_rows<F: RowOps, const W: usize>(
    src: *const u8,
    dst: *mut u8,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
    exclusive: bool,
) {
    let top = state.add((q - 1) * b);
    if q == 1 {
        if rows == 0 {
            return;
        }
        if exclusive {
            std::ptr::copy_nonoverlapping(state.cast_const(), dst, b);
            for r in 1..rows {
                F::add2::<W>(dst.add(r * b), dst.add((r - 1) * b), src.add((r - 1) * b), b);
            }
            F::add2::<W>(state, dst.add((rows - 1) * b), src.add((rows - 1) * b), b);
        } else {
            F::add2::<W>(dst, state.cast_const(), src, b);
            for r in 1..rows {
                F::add2::<W>(dst.add(r * b), dst.add((r - 1) * b), src.add(r * b), b);
            }
            std::ptr::copy_nonoverlapping(dst.add((rows - 1) * b).cast_const(), state, b);
        }
        return;
    }
    for r in 0..rows {
        let srow = src.add(r * b);
        let drow = dst.add(r * b);
        if exclusive {
            std::ptr::copy_nonoverlapping(top.cast_const(), drow, b);
        }
        F::add2::<W>(state, state.cast_const(), srow, b);
        for i in 1..q {
            F::add2::<W>(state.add(i * b), state.add(i * b).cast_const(), state.add((i - 1) * b).cast_const(), b);
        }
        if !exclusive {
            std::ptr::copy_nonoverlapping(top.cast_const(), drow, b);
        }
    }
}

/// In-place form of [`vertical_from_rows`].
#[inline(always)]
unsafe fn vertical_in_place_rows<F: RowOps, const W: usize>(
    data: *mut u8,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
    exclusive: bool,
) {
    let top = state.add((q - 1) * b);
    if q == 1 && !exclusive {
        if rows == 0 {
            return;
        }
        F::add2::<W>(data, state.cast_const(), data.cast_const(), b);
        for r in 1..rows {
            F::add2::<W>(data.add(r * b), data.add((r - 1) * b).cast_const(), data.add(r * b).cast_const(), b);
        }
        std::ptr::copy_nonoverlapping(data.add((rows - 1) * b).cast_const(), state, b);
        return;
    }
    for r in 0..rows {
        let row = data.add(r * b);
        if exclusive {
            // Row gets the pre-update top; state row 0 absorbs the input.
            F::exc_step::<W>(row, top.cast_const(), state, b);
        } else {
            F::add2::<W>(state, state.cast_const(), row.cast_const(), b);
        }
        for i in 1..q {
            F::add2::<W>(state.add(i * b), state.add(i * b).cast_const(), state.add((i - 1) * b).cast_const(), b);
        }
        if !exclusive {
            std::ptr::copy_nonoverlapping(top.cast_const(), row, b);
        }
    }
}

/// Totals-only form of [`vertical_from_rows`].
#[inline(always)]
unsafe fn vertical_totals_rows<F: RowOps, const W: usize>(
    src: *const u8,
    rows: usize,
    b: usize,
    state: *mut u8,
    q: usize,
) {
    for r in 0..rows {
        F::add2::<W>(state, state.cast_const(), src.add(r * b), b);
        for i in 1..q {
            F::add2::<W>(state.add(i * b), state.add(i * b).cast_const(), state.add((i - 1) * b).cast_const(), b);
        }
    }
}

/// Generates the per-family vertical runner: one `#[target_feature]` (or
/// plain, for SWAR/NEON baselines) entry per sweep kind, monomorphized
/// over the lane width.
macro_rules! vertical_runner {
    ($(#[$attr:meta])* $name:ident, $fam:ty) => {
        $(#[$attr])*
        unsafe fn $name<const W: usize>(op: VertOp, rows: usize, b: usize, state: *mut u8, q: usize) {
            match op {
                VertOp::From { src, dst, exclusive } => {
                    vertical_from_rows::<$fam, W>(src, dst, rows, b, state, q, exclusive)
                }
                VertOp::InPlace { data, exclusive } => {
                    vertical_in_place_rows::<$fam, W>(data, rows, b, state, q, exclusive)
                }
                VertOp::Totals { src } => vertical_totals_rows::<$fam, W>(src, rows, b, state, q),
            }
        }
    };
}

vertical_runner!(run_vert_swar, SwarRows);
#[cfg(target_arch = "x86_64")]
vertical_runner!(#[target_feature(enable = "avx2")] run_vert_avx2, x86::Avx2Rows);
#[cfg(target_arch = "x86_64")]
vertical_runner!(
    #[target_feature(enable = "avx512f,avx512bw,avx2")]
    run_vert_avx512,
    x86::Avx512Rows
);
#[cfg(target_arch = "aarch64")]
vertical_runner!(run_vert_neon, arm::NeonRows);

// --- x86-64: AVX2 / AVX-512 kernels ----------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lane_add, lane_load, lane_store, scalar_add2, scalar_exc_step, Isa, RowOps};
    use std::arch::x86_64::*;

    /// How far ahead of the current read position the streaming kernels
    /// prefetch, in bytes. On the non-temporal path the hardware
    /// prefetchers track the load stream poorly (the interleaved streaming
    /// stores occupy the same fill buffers), and an explicit deep prefetch
    /// recovers copy-level bandwidth; measured best around two pages on
    /// the deployment hosts.
    const PREFETCH_AHEAD_BYTES: usize = 8192;

    /// Prefetches the cache line `PREFETCH_AHEAD_BYTES` past `p` (never
    /// faults, so running past the buffer end is fine).
    #[inline(always)]
    pub(super) unsafe fn prefetch_src(p: *const u8) {
        _mm_prefetch::<_MM_HINT_T0>(p.add(PREFETCH_AHEAD_BYTES).cast());
    }

    /// Width-dispatched 256-bit lane add (the match folds per
    /// monomorphization).
    #[inline(always)]
    unsafe fn add256<const W: usize>(a: __m256i, b: __m256i) -> __m256i {
        match W {
            1 => _mm256_add_epi8(a, b),
            2 => _mm256_add_epi16(a, b),
            4 => _mm256_add_epi32(a, b),
            8 => _mm256_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// Width-dispatched 128-bit lane add.
    #[inline(always)]
    unsafe fn add128<const W: usize>(a: __m128i, b: __m128i) -> __m128i {
        match W {
            1 => _mm_add_epi8(a, b),
            2 => _mm_add_epi16(a, b),
            4 => _mm_add_epi32(a, b),
            8 => _mm_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// Width-dispatched 512-bit lane add (`epi8`/`epi16` need `avx512bw`,
    /// which the `Avx512` gate guarantees).
    #[inline(always)]
    unsafe fn add512<const W: usize>(a: __m512i, b: __m512i) -> __m512i {
        match W {
            1 => _mm512_add_epi8(a, b),
            2 => _mm512_add_epi16(a, b),
            4 => _mm512_add_epi32(a, b),
            8 => _mm512_add_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// AVX2 row family: 32-byte strips, then one 16-byte strip, then
    /// scalar lanes.
    pub(super) struct Avx2Rows;

    impl RowOps for Avx2Rows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 32 <= bytes {
                let va = _mm256_loadu_si256(a.add(off).cast());
                let vb = _mm256_loadu_si256(b.add(off).cast());
                _mm256_storeu_si256(dst.add(off).cast(), add256::<W>(va, vb));
                off += 32;
            }
            if off + 16 <= bytes {
                let va = _mm_loadu_si128(a.add(off).cast());
                let vb = _mm_loadu_si128(b.add(off).cast());
                _mm_storeu_si128(dst.add(off).cast(), add128::<W>(va, vb));
                off += 16;
            }
            scalar_add2::<W>(dst, a, b, off, bytes);
        }

        #[inline(always)]
        unsafe fn exc_step<const W: usize>(data: *mut u8, top: *const u8, acc: *mut u8, bytes: usize) {
            let mut off = 0;
            while off + 32 <= bytes {
                let d = _mm256_loadu_si256(data.add(off).cast());
                let t = _mm256_loadu_si256(top.add(off).cast());
                _mm256_storeu_si256(data.add(off).cast(), t);
                let s0 = _mm256_loadu_si256(acc.add(off).cast());
                _mm256_storeu_si256(acc.add(off).cast(), add256::<W>(s0, d));
                off += 32;
            }
            if off + 16 <= bytes {
                let d = _mm_loadu_si128(data.add(off).cast());
                let t = _mm_loadu_si128(top.add(off).cast());
                _mm_storeu_si128(data.add(off).cast(), t);
                let s0 = _mm_loadu_si128(acc.add(off).cast());
                _mm_storeu_si128(acc.add(off).cast(), add128::<W>(s0, d));
                off += 16;
            }
            scalar_exc_step::<W>(data, top, acc, off, bytes);
        }
    }

    /// AVX-512 row family: 64-byte strips, then the AVX2 remainder.
    pub(super) struct Avx512Rows;

    impl RowOps for Avx512Rows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 64 <= bytes {
                let va = _mm512_loadu_si512(a.add(off).cast());
                let vb = _mm512_loadu_si512(b.add(off).cast());
                _mm512_storeu_si512(dst.add(off).cast(), add512::<W>(va, vb));
                off += 64;
            }
            Avx2Rows::add2::<W>(dst.add(off), a.add(off), b.add(off), bytes - off);
        }

        #[inline(always)]
        unsafe fn exc_step<const W: usize>(data: *mut u8, top: *const u8, acc: *mut u8, bytes: usize) {
            let mut off = 0;
            while off + 64 <= bytes {
                let d = _mm512_loadu_si512(data.add(off).cast());
                let t = _mm512_loadu_si512(top.add(off).cast());
                _mm512_storeu_si512(data.add(off).cast(), t);
                let s0 = _mm512_loadu_si512(acc.add(off).cast());
                _mm512_storeu_si512(acc.add(off).cast(), add512::<W>(s0, d));
                off += 64;
            }
            Avx2Rows::exc_step::<W>(data.add(off), top.add(off), acc.add(off), bytes - off);
        }
    }

    /// AVX2 stride-1 scan of `n` `u32` lanes: per 8-lane block, the
    /// Hillis–Steele shifted-add ladder in registers (in-128 shifts, one
    /// cross-lane fixup), then the broadcast running carry.
    ///
    /// # Safety
    ///
    /// `src`/`dst` valid for `n` lanes, equal or non-overlapping; AVX2
    /// available. `NT` requires `src != dst`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_w4_avx2<const NT: bool>(
        src: *const u32,
        dst: *mut u32,
        n: usize,
        carry: u32,
    ) -> u32 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            // Scalar prologue until the destination is 32-byte aligned so
            // every streamed store hits a whole aligned vector.
            while i < n && !(dst.add(i) as usize).is_multiple_of(32) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm256_setzero_si256();
        let idx_last = _mm256_set1_epi32(7);
        let mut cv = _mm256_set1_epi32(c as i32);
        while i + 8 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm256_loadu_si256(src.add(i).cast());
            x = _mm256_add_epi32(x, _mm256_slli_si256::<4>(x));
            x = _mm256_add_epi32(x, _mm256_slli_si256::<8>(x));
            // Cross-lane fixup: broadcast the low half's total (element 3)
            // into every high-half lane, zero into the low half.
            let t = _mm256_shuffle_epi32::<0xFF>(x);
            let t = _mm256_permute2x128_si256::<0x08>(t, zero);
            x = _mm256_add_epi32(x, t);
            x = _mm256_add_epi32(x, cv);
            if NT {
                _mm256_stream_si256(dst.add(i).cast(), x);
            } else {
                _mm256_storeu_si256(dst.add(i).cast(), x);
            }
            cv = _mm256_permutevar8x32_epi32(x, idx_last);
            i += 8;
        }
        if NT {
            // Non-temporal stores are weakly ordered: fence so the CPU
            // engine's subsequent ready-flag release publishes them.
            _mm_sfence();
        }
        c = _mm256_extract_epi32::<0>(cv) as u32;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX2 stride-1 scan of `n` `u64` lanes (4-lane blocks).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_w8_avx2<const NT: bool>(
        src: *const u64,
        dst: *mut u64,
        n: usize,
        carry: u64,
    ) -> u64 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(32) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm256_setzero_si256();
        let mut cv = _mm256_set1_epi64x(c as i64);
        while i + 4 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm256_loadu_si256(src.add(i).cast());
            x = _mm256_add_epi64(x, _mm256_slli_si256::<8>(x));
            // Cross-lane fixup: [0, 0, x1, x1] (x1 = low half's total).
            let t = _mm256_permute4x64_epi64::<0x50>(x);
            let t = _mm256_blend_epi32::<0x0F>(t, zero);
            x = _mm256_add_epi64(x, t);
            x = _mm256_add_epi64(x, cv);
            if NT {
                _mm256_stream_si256(dst.add(i).cast(), x);
            } else {
                _mm256_storeu_si256(dst.add(i).cast(), x);
            }
            cv = _mm256_permute4x64_epi64::<0xFF>(x);
            i += 4;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm256_extract_epi64::<0>(cv) as u64;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX-512 stride-1 scan of `n` `u32` lanes: the shifted-add ladder
    /// over 16 lanes via `valignd` against zero.
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx2`], requiring AVX-512F.
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn scan_w4_avx512<const NT: bool>(
        src: *const u32,
        dst: *mut u32,
        n: usize,
        carry: u32,
    ) -> u32 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(64) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm512_setzero_si512();
        let idx_last = _mm512_set1_epi32(15);
        let mut cv = _mm512_set1_epi32(c as i32);
        while i + 16 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm512_loadu_si512(src.add(i).cast());
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<15>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<14>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<12>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<8>(x, zero));
            x = _mm512_add_epi32(x, cv);
            if NT {
                _mm512_stream_si512(dst.add(i).cast(), x);
            } else {
                _mm512_storeu_si512(dst.add(i).cast(), x);
            }
            cv = _mm512_permutexvar_epi32(idx_last, x);
            i += 16;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm512_cvtsi512_si32(cv) as u32;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// AVX-512 stride-1 scan of `n` `u64` lanes (8-lane blocks via
    /// `valignq`).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_avx512`].
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn scan_w8_avx512<const NT: bool>(
        src: *const u64,
        dst: *mut u64,
        n: usize,
        carry: u64,
    ) -> u64 {
        let mut i = 0usize;
        let mut c = carry;
        if NT {
            while i < n && !(dst.add(i) as usize).is_multiple_of(64) {
                c = c.wrapping_add(*src.add(i));
                *dst.add(i) = c;
                i += 1;
            }
        }
        let zero = _mm512_setzero_si512();
        let idx_last = _mm512_set1_epi64(7);
        let mut cv = _mm512_set1_epi64(c as i64);
        while i + 8 <= n {
            if NT {
                prefetch_src(src.add(i).cast());
            }
            let mut x = _mm512_loadu_si512(src.add(i).cast());
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<7>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<6>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<4>(x, zero));
            x = _mm512_add_epi64(x, cv);
            if NT {
                _mm512_stream_si512(dst.add(i).cast(), x);
            } else {
                _mm512_storeu_si512(dst.add(i).cast(), x);
            }
            cv = _mm512_permutexvar_epi64(idx_last, x);
            i += 8;
        }
        if NT {
            _mm_sfence();
        }
        c = _mm256_extract_epi64::<0>(_mm512_castsi512_si256(cv)) as u64;
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// The zero-seeded vertical cascade of the publish reduction over
    /// `rows` one-vector rows of `EW`-byte lanes, with the `Q`-vector
    /// window in registers; stores the `Q` column-total vectors to `out`.
    macro_rules! column_cascade_kernel {
        ($name:ident, $feature:literal, $vec:ty, $zero:ident, $load:ident, $store:ident, $add:ident) => {
            #[target_feature(enable = $feature)]
            unsafe fn $name<const EW: usize, const Q: usize>(src: *const u8, rows: usize, out: *mut u8) {
                const { assert!(Q > 0) };
                let bytes = std::mem::size_of::<$vec>();
                let mut a: [$vec; Q] = [$zero(); Q];
                for r in 0..rows {
                    let x = $load(src.add(r * bytes).cast());
                    a[0] = $add::<EW>(a[0], x);
                    for i in 1..Q {
                        a[i] = $add::<EW>(a[i], a[i - 1]);
                    }
                }
                for (i, v) in a.iter().enumerate() {
                    $store(out.add(i * 64).cast(), *v);
                }
            }
        };
    }
    column_cascade_kernel!(
        column_cascade_avx512,
        "avx512f,avx512bw,avx2",
        __m512i,
        _mm512_setzero_si512,
        _mm512_loadu_si512,
        _mm512_storeu_si512,
        add512
    );
    column_cascade_kernel!(
        column_cascade_avx2,
        "avx2",
        __m256i,
        _mm256_setzero_si256,
        _mm256_loadu_si256,
        _mm256_storeu_si256,
        add256
    );

    /// Runs the `(isa, bytes, q)` monomorphization of the column cascade.
    ///
    /// # Safety
    ///
    /// `isa` is AVX2 or AVX-512 and available; `bytes` is 4 or 8; `q` in
    /// `1..=8`; `src` valid for `rows` vectors; `out` for `q * 64` bytes.
    pub(super) unsafe fn column_cascade(isa: Isa, bytes: usize, q: usize, src: *const u8, rows: usize, out: *mut u8) {
        macro_rules! by_q {
            ($kernel:ident, $ew:literal) => {
                match q {
                    1 => $kernel::<$ew, 1>(src, rows, out),
                    2 => $kernel::<$ew, 2>(src, rows, out),
                    3 => $kernel::<$ew, 3>(src, rows, out),
                    4 => $kernel::<$ew, 4>(src, rows, out),
                    5 => $kernel::<$ew, 5>(src, rows, out),
                    6 => $kernel::<$ew, 6>(src, rows, out),
                    7 => $kernel::<$ew, 7>(src, rows, out),
                    8 => $kernel::<$ew, 8>(src, rows, out),
                    _ => unreachable!("reduction orders are 1..=8"),
                }
            };
        }
        match (isa, bytes) {
            (Isa::Avx512, 8) => by_q!(column_cascade_avx512, 8),
            (Isa::Avx512, _) => by_q!(column_cascade_avx512, 4),
            (_, 8) => by_q!(column_cascade_avx2, 8),
            _ => by_q!(column_cascade_avx2, 4),
        }
    }

    /// Width-dispatched 512-bit low multiply (`epi64` needs `avx512dq`).
    #[inline(always)]
    unsafe fn mullo512<const W: usize>(a: __m512i, b: __m512i) -> __m512i {
        match W {
            4 => _mm512_mullo_epi32(a, b),
            8 => _mm512_mullo_epi64(a, b),
            _ => unreachable!(),
        }
    }

    /// `K` shifted dot products `dots[j] = sum_t src[t] * rev[t + j]` over
    /// `n` `EW`-byte lanes (wrapping), one vector of `src` against `K`
    /// unaligned windows of `rev` per step, with `K` vector accumulators.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx2")]
    unsafe fn impulse_dots_avx512<const EW: usize, const K: usize>(
        src: *const u8,
        n: usize,
        rev: *const u8,
        dots: &mut [u64; 8],
    ) {
        let lanes = 64 / EW;
        let mut acc = [_mm512_setzero_si512(); K];
        let mut t = 0;
        while t + lanes <= n {
            let x = _mm512_loadu_si512(src.add(t * EW).cast());
            for (j, a) in acc.iter_mut().enumerate() {
                let g = _mm512_loadu_si512(rev.add((t + j) * EW).cast());
                *a = add512::<EW>(*a, mullo512::<EW>(x, g));
            }
            t += lanes;
        }
        for (j, a) in acc.iter().enumerate() {
            let mut d = if EW == 8 {
                _mm512_reduce_add_epi64(*a) as u64
            } else {
                u64::from(_mm512_reduce_add_epi32(*a) as u32)
            };
            for i in t..n {
                let x = lane_load::<EW>(src.add(i * EW));
                let g = lane_load::<EW>(rev.add((i + j) * EW));
                d = d.wrapping_add(x.wrapping_mul(g));
            }
            dots[j] = d;
        }
    }

    /// Runs the `(bytes, k)` monomorphization of the impulse dot products.
    ///
    /// # Safety
    ///
    /// AVX-512F/BW/DQ available; `bytes` is 4 or 8; `k` in `1..=8`; `src`
    /// valid for `n` lanes and `rev` for `n + k - 1`.
    pub(super) unsafe fn impulse_dots(bytes: usize, k: usize, src: *const u8, n: usize, rev: *const u8, dots: &mut [u64; 8]) {
        macro_rules! by_k {
            ($ew:literal) => {
                match k {
                    1 => impulse_dots_avx512::<$ew, 1>(src, n, rev, dots),
                    2 => impulse_dots_avx512::<$ew, 2>(src, n, rev, dots),
                    3 => impulse_dots_avx512::<$ew, 3>(src, n, rev, dots),
                    4 => impulse_dots_avx512::<$ew, 4>(src, n, rev, dots),
                    5 => impulse_dots_avx512::<$ew, 5>(src, n, rev, dots),
                    6 => impulse_dots_avx512::<$ew, 6>(src, n, rev, dots),
                    7 => impulse_dots_avx512::<$ew, 7>(src, n, rev, dots),
                    8 => impulse_dots_avx512::<$ew, 8>(src, n, rev, dots),
                    _ => unreachable!("reduction orders are 1..=8"),
                }
            };
        }
        if bytes == 8 {
            by_k!(8)
        } else {
            by_k!(4)
        }
    }

    /// Streams `lines` whole 64-byte lines from `src` to the 64-byte
    /// aligned `dst` (`vmovntdq` zmm).
    ///
    /// # Safety
    ///
    /// AVX-512F available; `src`/`dst` valid for `lines * 64` bytes and
    /// non-overlapping; `dst` 64-byte aligned.
    #[target_feature(enable = "avx512f,avx2")]
    pub(super) unsafe fn stream_lines_avx512(src: *const u8, dst: *mut u8, lines: usize) {
        for l in 0..lines {
            let v = _mm512_loadu_si512(src.add(l * 64).cast());
            _mm512_stream_si512(dst.add(l * 64).cast(), v);
        }
    }

    /// AVX2 form of [`stream_lines_avx512`]: two 32-byte streaming stores
    /// per line.
    ///
    /// # Safety
    ///
    /// As [`stream_lines_avx512`], with AVX2 available.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stream_lines_avx2(src: *const u8, dst: *mut u8, lines: usize) {
        for l in 0..lines {
            let lo = _mm256_loadu_si256(src.add(l * 64).cast());
            let hi = _mm256_loadu_si256(src.add(l * 64 + 32).cast());
            _mm256_stream_si256(dst.add(l * 64).cast(), lo);
            _mm256_stream_si256(dst.add(l * 64 + 32).cast(), hi);
        }
    }

    // Keep the scalar-lane helpers referenced so per-width dead-code
    // elimination never warns on narrow monomorphizations.
    const _: unsafe fn(*const u8) -> u64 = lane_load::<1>;
    const _: unsafe fn(*mut u8, u64) = lane_store::<1>;
    const _: fn(u64, u64) -> u64 = lane_add::<1>;
}

// --- AArch64: NEON kernels --------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{scalar_add2, scalar_exc_step, RowOps};
    use std::arch::aarch64::*;

    /// Width-dispatched 128-bit lane add on byte-typed vectors.
    #[inline(always)]
    unsafe fn addq<const W: usize>(a: uint8x16_t, b: uint8x16_t) -> uint8x16_t {
        match W {
            1 => vaddq_u8(a, b),
            2 => vreinterpretq_u8_u16(vaddq_u16(vreinterpretq_u16_u8(a), vreinterpretq_u16_u8(b))),
            4 => vreinterpretq_u8_u32(vaddq_u32(vreinterpretq_u32_u8(a), vreinterpretq_u32_u8(b))),
            8 => vreinterpretq_u8_u64(vaddq_u64(vreinterpretq_u64_u8(a), vreinterpretq_u64_u8(b))),
            _ => unreachable!(),
        }
    }

    /// NEON row family: 16-byte strips, then scalar lanes.
    pub(super) struct NeonRows;

    impl RowOps for NeonRows {
        #[inline(always)]
        unsafe fn add2<const W: usize>(dst: *mut u8, a: *const u8, b: *const u8, bytes: usize) {
            let mut off = 0;
            while off + 16 <= bytes {
                let va = vld1q_u8(a.add(off));
                let vb = vld1q_u8(b.add(off));
                vst1q_u8(dst.add(off), addq::<W>(va, vb));
                off += 16;
            }
            scalar_add2::<W>(dst, a, b, off, bytes);
        }

        #[inline(always)]
        unsafe fn exc_step<const W: usize>(data: *mut u8, top: *const u8, acc: *mut u8, bytes: usize) {
            let mut off = 0;
            while off + 16 <= bytes {
                let d = vld1q_u8(data.add(off));
                let t = vld1q_u8(top.add(off));
                vst1q_u8(data.add(off), t);
                let s0 = vld1q_u8(acc.add(off));
                vst1q_u8(acc.add(off), addq::<W>(s0, d));
                off += 16;
            }
            scalar_exc_step::<W>(data, top, acc, off, bytes);
        }
    }

    /// NEON stride-1 scan of `n` `u32` lanes: 4-lane blocks via the
    /// `vext`-against-zero shifted-add ladder.
    ///
    /// # Safety
    ///
    /// `src`/`dst` valid for `n` lanes, equal or non-overlapping.
    pub(super) unsafe fn scan_w4_neon(src: *const u32, dst: *mut u32, n: usize, carry: u32) -> u32 {
        let zero = vdupq_n_u32(0);
        let mut cv = vdupq_n_u32(carry);
        let mut i = 0usize;
        while i + 4 <= n {
            let mut x = vld1q_u32(src.add(i));
            x = vaddq_u32(x, vextq_u32::<3>(zero, x));
            x = vaddq_u32(x, vextq_u32::<2>(zero, x));
            x = vaddq_u32(x, cv);
            vst1q_u32(dst.add(i), x);
            cv = vdupq_laneq_u32::<3>(x);
            i += 4;
        }
        let mut c = vgetq_lane_u32::<0>(cv);
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }

    /// NEON stride-1 scan of `n` `u64` lanes (2-lane blocks).
    ///
    /// # Safety
    ///
    /// As [`scan_w4_neon`].
    pub(super) unsafe fn scan_w8_neon(src: *const u64, dst: *mut u64, n: usize, carry: u64) -> u64 {
        let zero = vdupq_n_u64(0);
        let mut cv = vdupq_n_u64(carry);
        let mut i = 0usize;
        while i + 2 <= n {
            let mut x = vld1q_u64(src.add(i));
            x = vaddq_u64(x, vextq_u64::<1>(zero, x));
            x = vaddq_u64(x, cv);
            vst1q_u64(dst.add(i), x);
            cv = vdupq_laneq_u64::<1>(x);
            i += 2;
        }
        let mut c = vgetq_lane_u64::<0>(cv);
        while i < n {
            c = c.wrapping_add(*src.add(i));
            *dst.add(i) = c;
            i += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;

    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as u8
            })
            .collect()
    }

    /// Every target has at least one vector family its CPU cannot execute
    /// (NEON on x86-64, AVX on aarch64); passing one through the public
    /// dispatch must decline — not reach a `#[target_feature]` kernel.
    #[test]
    fn unavailable_isa_declines_instead_of_dispatching() {
        for isa in Isa::ALL.into_iter().filter(|i| !i.is_available()) {
            let src = vec![1i64; 100];
            let mut dst = vec![0i64; 100];
            assert_eq!(stride1_from(isa, &src, &mut dst, 0), None, "{isa}");
            assert_eq!(stride1_in_place(isa, &mut dst), None, "{isa}");
            let mut state = vec![0i64; 4];
            assert!(!vertical_from(isa, &src, &mut dst, 4, &mut state, false), "{isa}");
            assert!(!vertical_in_place(isa, &mut dst, 4, &mut state, false), "{isa}");
            assert!(!vertical_totals(isa, &src, 4, &mut state), "{isa}");
        }
    }

    #[test]
    fn swar_word_add_is_per_lane_wrapping() {
        // Exhaustive-ish: boundary values in every lane position.
        let vals: [u8; 5] = [0, 1, 0x7f, 0x80, 0xff];
        for &a in &vals {
            for &b in &vals {
                for lane in 0..8 {
                    let wa = (a as u64) << (8 * lane) | 0x2323_2323_2323_2323 & !(0xffu64 << (8 * lane));
                    let wb = (b as u64) << (8 * lane) | 0x4545_4545_4545_4545 & !(0xffu64 << (8 * lane));
                    let got = swar_word_add::<1>(wa, wb);
                    let lane_got = (got >> (8 * lane)) as u8;
                    assert_eq!(lane_got, a.wrapping_add(b), "a={a:#x} b={b:#x} lane={lane}");
                    // Unrelated lanes untouched by carries.
                    for other in (0..8).filter(|&o| o != lane) {
                        let g = (got >> (8 * other)) as u8;
                        assert_eq!(g, 0x23u8.wrapping_add(0x45), "carry leaked into lane {other}");
                    }
                }
            }
        }
    }

    #[test]
    fn swar_scan_matches_scalar_u8_u16() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1000] {
            let data = bytes(n, n as u64 + 5);
            let mut dst = vec![0u8; n];
            let carry = 7u64;
            let got = unsafe { swar_scan::<1>(data.as_ptr(), dst.as_mut_ptr(), n, carry) };
            let mut c = 7u8;
            let expect: Vec<u8> = data
                .iter()
                .map(|&v| {
                    c = c.wrapping_add(v);
                    c
                })
                .collect();
            assert_eq!(dst, expect, "u8 n={n}");
            assert_eq!(got as u8, c, "u8 carry n={n}");
        }
        for n in [0usize, 1, 3, 4, 5, 8, 9, 500] {
            let raw = bytes(n * 2, 99);
            let data: Vec<u16> = raw.chunks(2).map(|c| u16::from_le_bytes([c[0], c[1]])).collect();
            let mut dst = vec![0u16; n];
            let got = unsafe {
                swar_scan::<2>(data.as_ptr().cast(), dst.as_mut_ptr().cast(), n, 0x1234)
            };
            let mut c = 0x1234u16;
            let expect: Vec<u16> = data
                .iter()
                .map(|&v| {
                    c = c.wrapping_add(v);
                    c
                })
                .collect();
            assert_eq!(dst, expect, "u16 n={n}");
            assert_eq!(got as u16, c, "u16 carry n={n}");
        }
    }

    #[test]
    fn scalar_isa_always_declines() {
        let src = [1i64, 2, 3];
        let mut dst = [0i64; 3];
        assert_eq!(stride1_from(Isa::Scalar, &src, &mut dst, 0), None);
        let mut state = [0i64; 2];
        assert!(!vertical_from(Isa::Scalar, &src[..2], &mut dst[..2], 2, &mut state, false));
        assert!(!vertical_in_place(Isa::Scalar, &mut dst[..2], 2, &mut state, false));
        assert!(!vertical_totals(Isa::Scalar, &src[..2], 2, &mut state));
    }

    #[test]
    fn floats_never_enter_simd() {
        let src = [1.0f64, 2.0];
        let mut dst = [0.0f64; 2];
        for i in isa::available() {
            assert_eq!(stride1_from(i, &src, &mut dst, 0.0), None);
        }
    }

    #[test]
    fn resolved_stride1_matches_reference_widths() {
        // The host's own resolved ISA (whatever it is) must be exact.
        let best = isa::detect();
        for n in [0usize, 1, 5, 31, 32, 33, 1000] {
            let raw = bytes(n * 8, 3 * n as u64 + 1);
            let data: Vec<u64> = raw
                .chunks(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let mut dst = vec![0u64; n];
            if let Some(got) = stride1_from(best, &data, &mut dst, 11u64) {
                let mut c = 11u64;
                let expect: Vec<u64> = data
                    .iter()
                    .map(|&v| {
                        c = c.wrapping_add(v);
                        c
                    })
                    .collect();
                assert_eq!(dst, expect, "w8 n={n} isa={best}");
                assert_eq!(got, c);
            }
        }
    }
}
