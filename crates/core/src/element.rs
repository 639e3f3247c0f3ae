//! Element types that SAM can scan.
//!
//! The paper evaluates 32- and 64-bit integers; the implementation is
//! templated over the element type and the associative operator. Here the
//! same genericity is expressed through [`ScanElement`] (any numeric type
//! that can live in simulated device memory and be published through the
//! auxiliary sum arrays) and [`IntElement`] (the subset supporting bitwise
//! scans such as `xor`).
//!
//! Integer arithmetic is *wrapping*, matching CUDA's two's-complement
//! semantics; this is what makes delta encoding/decoding lossless even when
//! differences overflow.

use gpu_sim::Pod64;

/// A numeric element type scannable by every algorithm in this workspace.
///
/// Implementors provide the constants and total operations the standard
/// operators need. All integer operations wrap (two's complement), exactly
/// like unchecked CUDA arithmetic.
pub trait ScanElement:
    Pod64 + PartialEq + PartialOrd + std::fmt::Debug + std::fmt::Display + Default
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Identity of `max` (the smallest representable value).
    const MIN_VALUE: Self;
    /// Identity of `min` (the largest representable value).
    const MAX_VALUE: Self;
    /// Whether [`ScanElement::add`] is *exactly* associative, so kernels may
    /// reassociate sums freely without changing the result bit-for-bit.
    ///
    /// True for the wrapping integer types (two's-complement addition is a
    /// commutative group); false for floats, whose addition is only
    /// pseudo-associative — float kernels must keep the serial left-to-right
    /// association to stay deterministic (paper Section 3.1).
    const EXACT_ASSOC: bool;
    /// Whether repeated addition of a value is *exactly* an integer multiple
    /// — i.e. `x` added `w` times equals `x.mul(from_u64_wrapping(w))`
    /// bit-for-bit, for every `x` and every `w` (wrapping semantics).
    ///
    /// This is the capability the single-pass higher-order carry algebra
    /// requires: it replaces the q iterated carry rounds with one
    /// binomial-coefficient-weighted application, which is only exact when
    /// scalar multiples distribute over wrapping addition. True for the
    /// two's-complement integer types (ring `Z/2^w`); false for floats,
    /// where `x * 3.0` and `x + x + x` can round differently.
    const EXACT_MUL: bool;
    /// Whether the type forms an *exact commutative ring* under `add` and
    /// `mul` — associativity ([`ScanElement::EXACT_ASSOC`]) plus exact
    /// scalar multiples ([`ScanElement::EXACT_MUL`]), together.
    ///
    /// This is the single capability both matrix carry semigroups
    /// ([`crate::carry::CarrySemigroup`]) require: the binomial Toeplitz
    /// weights of higher-order sums and the companion-matrix powers of
    /// linear recurrences are both exact precisely over `Z/2^w`. The sum
    /// cascade gate and [`crate::op::LinRec`] construction both test this
    /// one const instead of re-deriving the conjunction.
    const EXACT_RING: bool = Self::EXACT_ASSOC && Self::EXACT_MUL;
    /// Wrapping addition (plain addition for floats).
    fn add(self, other: Self) -> Self;
    /// Wrapping subtraction (plain subtraction for floats).
    fn sub(self, other: Self) -> Self;
    /// Wrapping multiplication (plain multiplication for floats).
    fn mul(self, other: Self) -> Self;
    /// Maximum of the two values (for floats: IEEE `max`, NaN-propagating
    /// behaviour follows `f32::max`/`f64::max`).
    fn max_of(self, other: Self) -> Self;
    /// Minimum of the two values.
    fn min_of(self, other: Self) -> Self;
    /// Conversion from a small integer, used by tests and workload
    /// generators.
    fn from_i64(v: i64) -> Self;
    /// Truncating conversion from an unsigned 64-bit repetition count,
    /// used to materialize binomial carry weights. For the integer types
    /// this is `w as Self` (reduction mod 2^width, which is exactly the
    /// congruence the wrapping carry algebra needs); float implementations
    /// exist only to satisfy the trait and are never called on the
    /// [`ScanElement::EXACT_MUL`]-gated paths.
    fn from_u64_wrapping(w: u64) -> Self;
}

/// Integer element types, additionally supporting bitwise scan operators.
pub trait IntElement: ScanElement + Eq + Ord + std::hash::Hash {
    /// Bitwise exclusive or.
    fn xor(self, other: Self) -> Self;
    /// Bitwise and.
    fn and(self, other: Self) -> Self;
    /// Bitwise or.
    fn or(self, other: Self) -> Self;
}

/// Whether `T` *is* one of the eight primitive wrapping integer types
/// (`i8`/`u8` … `i64`/`u64`), bit-reinterpretable as the unsigned integer
/// of its width.
///
/// This is a strictly stronger claim than [`ScanElement::EXACT_ASSOC`]: it
/// licenses [`crate::simd`] and the chunk kernels to reinterpret slices as
/// raw lane words and add them with width-generic SIMD/SWAR instructions,
/// which is only sound for the primitive types themselves
/// (two's-complement addition is sign-agnostic at the bit level). It is a
/// `TypeId` match rather than a trait constant, so no downstream
/// [`ScanElement`] implementation can opt into the reinterpreting kernels;
/// the comparison folds to a constant per monomorphization.
pub fn is_wrapping_int<T: 'static>() -> bool {
    use std::any::TypeId;
    let id = TypeId::of::<T>();
    [
        TypeId::of::<u8>(),
        TypeId::of::<i8>(),
        TypeId::of::<u16>(),
        TypeId::of::<i16>(),
        TypeId::of::<u32>(),
        TypeId::of::<i32>(),
        TypeId::of::<u64>(),
        TypeId::of::<i64>(),
    ]
    .contains(&id)
}

macro_rules! impl_scan_int {
    ($($t:ty),*) => {$(
        impl ScanElement for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;
            const EXACT_ASSOC: bool = true;
            const EXACT_MUL: bool = true;

            #[inline]
            fn add(self, other: Self) -> Self {
                self.wrapping_add(other)
            }
            #[inline]
            fn sub(self, other: Self) -> Self {
                self.wrapping_sub(other)
            }
            #[inline]
            fn mul(self, other: Self) -> Self {
                self.wrapping_mul(other)
            }
            #[inline]
            fn max_of(self, other: Self) -> Self {
                Ord::max(self, other)
            }
            #[inline]
            fn min_of(self, other: Self) -> Self {
                Ord::min(self, other)
            }
            #[inline]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            #[inline]
            fn from_u64_wrapping(w: u64) -> Self {
                w as $t
            }
        }

        impl IntElement for $t {
            #[inline]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }
            #[inline]
            fn and(self, other: Self) -> Self {
                self & other
            }
            #[inline]
            fn or(self, other: Self) -> Self {
                self | other
            }
        }
    )*};
}

impl_scan_int!(i8, i16, i32, i64, u8, u16, u32, u64);

macro_rules! impl_scan_float {
    ($($t:ty),*) => {$(
        impl ScanElement for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const MIN_VALUE: Self = <$t>::NEG_INFINITY;
            const MAX_VALUE: Self = <$t>::INFINITY;
            const EXACT_ASSOC: bool = false;
            const EXACT_MUL: bool = false;

            #[inline]
            fn add(self, other: Self) -> Self {
                self + other
            }
            #[inline]
            fn sub(self, other: Self) -> Self {
                self - other
            }
            #[inline]
            fn mul(self, other: Self) -> Self {
                self * other
            }
            #[inline]
            fn max_of(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline]
            fn min_of(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline]
            fn from_i64(v: i64) -> Self {
                v as $t
            }
            #[inline]
            fn from_u64_wrapping(w: u64) -> Self {
                w as $t
            }
        }
    )*};
}

impl_scan_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapping_add_matches_two_complement() {
        assert_eq!(i32::MAX.add(1), i32::MIN);
        assert_eq!(0u32.sub(1), u32::MAX);
        assert_eq!((1i64 << 62).mul(4), 0);
    }

    #[test]
    fn identities() {
        assert_eq!(i32::ZERO, 0);
        assert_eq!(i32::ONE, 1);
        assert_eq!(i32::MIN_VALUE, i32::MIN);
        assert_eq!(f64::MIN_VALUE, f64::NEG_INFINITY);
        assert_eq!(u8::MAX_VALUE, 255);
    }

    #[test]
    fn float_ops() {
        assert_eq!(1.5f64.add(2.25), 3.75);
        assert_eq!(1.5f32.max_of(2.5), 2.5);
        assert_eq!(1.5f32.min_of(2.5), 1.5);
    }

    #[test]
    fn int_bit_ops() {
        assert_eq!(0b1100u32.xor(0b1010), 0b0110);
        assert_eq!(0b1100u32.and(0b1010), 0b1000);
        assert_eq!(0b1100u32.or(0b1010), 0b1110);
    }

    #[test]
    fn from_i64_conversions() {
        assert_eq!(i32::from_i64(-7), -7);
        assert_eq!(u8::from_i64(300), 44); // wraps like `as`
        assert_eq!(f32::from_i64(3), 3.0);
    }

    #[test]
    fn exact_mul_is_repeated_addition() {
        // The capability contract: w-fold addition == mul by the truncated
        // weight, including past overflow.
        fn check<T: ScanElement>(x: T, w: u64) {
            assert!(T::EXACT_MUL);
            let mut acc = T::ZERO;
            for _ in 0..w {
                acc = acc.add(x);
            }
            assert_eq!(acc, x.mul(T::from_u64_wrapping(w)), "{x} * {w}");
        }
        check(i32::MAX, 7);
        check(u8::MAX, 300);
        check(-3i64, 1000);
        check(u32::MAX - 1, 513);
        // Floats must never advertise exact multiplication.
        fn exact_mul<T: ScanElement>() -> bool {
            T::EXACT_MUL
        }
        assert!(!exact_mul::<f64>());
        assert!(!exact_mul::<f32>());
    }

    #[test]
    fn exact_ring_is_the_conjunction() {
        fn ring<T: ScanElement>() -> bool {
            T::EXACT_RING
        }
        assert!(ring::<i8>() && ring::<u16>() && ring::<i32>() && ring::<u64>());
        assert!(!ring::<f32>() && !ring::<f64>());
    }
}
