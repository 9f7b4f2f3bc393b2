//! Decimal text for the writer, byte for byte what `{}` prints.
//!
//! Counts and ids go through a hand `itoa`. An `f64` goes one of three
//! ways:
//!
//! * an exact integer below 2^53 (not `-0.0`) is printed as that integer,
//!   which is also the shortest round-trip form of such a value;
//! * any other finite value with 2^-13 ≤ |x| < 2^52 gets the shortest
//!   digits that read back to it, found with exact `u128` arithmetic;
//! * everything else (tiny and subnormal values, `-0.0`, NaN, infinities,
//!   integers from 2^53 up) is formatted by `{}` itself.
//!
//! The shortest digits follow `{}`'s rule: among the digit strings with
//! the fewest significant digits that lie inside the value's rounding
//! interval (its ends included when the mantissa is even), the one nearest
//! the value, and on an exact tie the one above it (not the even one).
//! They are printed without an exponent.

/// `10^i` for `i` in `0..=21`.
const POW10: [u128; 22] = {
    let mut t = [1u128; 22];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Appends `n` in decimal.
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let start = fill_digits(&mut digits, n);
    out.extend_from_slice(&digits[start..]);
}

/// Writes `n`'s decimal digits at the end of `digits` and returns where
/// they start.
fn fill_digits(digits: &mut [u8; 20], mut n: u64) -> usize {
    let mut i = digits.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + n as u8;
    }
    i
}

/// `"00"` to `"99"`, end to end.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends `x` exactly as `format!("{x}")` would.
pub fn push_f64(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 && fraction == 0 && !negative {
        out.push(b'0');
        return;
    }
    if biased == 0 || biased == 0x7ff {
        // Subnormals, -0.0, NaN and infinities.
        std_format(out, x);
        return;
    }
    // |x| = m * 2^e with a 53-bit m.
    let m = fraction | (1 << 52);
    let e = biased - 1075;
    if (-52..=0).contains(&e) && m.trailing_zeros() >= e.unsigned_abs() {
        if negative {
            out.push(b'-');
        }
        push_u64(out, m >> e.unsigned_abs());
    } else if !push_shortest(out, negative, m, e, fraction == 0) {
        std_format(out, x);
    }
}

/// Appends `x` through `{}` itself.
fn std_format(out: &mut Vec<u8>, x: f64) {
    use std::io::Write;
    // Writing to a `Vec` cannot fail.
    let _ = write!(out, "{x}");
}

/// Appends the shortest digits of the non-integer `m * 2^e`, negated when
/// `negative`; `boundary` marks a power of two, whose lower neighbour is
/// half as far as its upper one. Returns `false`, appending nothing,
/// outside 2^-13 <= |x| < 2^52.
fn push_shortest(out: &mut Vec<u8>, negative: bool, m: u64, e: i32, boundary: bool) -> bool {
    // 2^top <= |x| < 2^(top + 1), so 10^low <= 2^top < 10^(low + 1).
    let top = e + 52;
    if !(-13..52).contains(&top) {
        return false;
    }
    let low = (top * 78_913) >> 18;
    // Scaled by 10^q, |x| lies in [10^17, 2 * 10^18): its integer part
    // fits a `u64`, and the rounding interval spans more than 16 units, so
    // the shortest digits always end at or above the units digit.
    let q = (17 - low) as usize;
    let scale = POW10[q];
    // The value and the ends of its rounding interval, times 4 * 2^-e (an
    // exact integer shift `k`), times 10^q: below 2^55 * 10^21 < 2^128.
    let k = (2 - e) as u32;
    let mask = (1u128 << k) - 1;
    let v = u128::from(m << 2) * scale;
    let lower = v - if boundary { scale } else { 2 * scale };
    let upper = v + 2 * scale;
    // An even mantissa reads back from either end of its interval.
    let inclusive = m.is_multiple_of(2);
    let (lo, hi) = if inclusive {
        ((lower + mask) >> k, upper >> k)
    } else {
        ((lower >> k) + 1, (upper - 1) >> k)
    };
    let (mut lo, mut hi) = (lo as u64, hi as u64);
    // Drop digits while a shorter number still lies in [lo, hi], and the
    // same digits from the value's integer part.
    let mut whole = (v >> k) as u64;
    let mut last_dropped = 0;
    let mut dropped = 0;
    while lo.div_ceil(10) <= hi / 10 {
        lo = lo.div_ceil(10);
        hi /= 10;
        last_dropped = whole % 10;
        whole /= 10;
        dropped += 1;
    }
    // The nearest candidate to the value, ties rounding up, kept inside
    // the interval: what was dropped is at least half a unit exactly when
    // its first digit is 5 or more.
    let round_up = if dropped == 0 {
        (v & mask) >= 1 << (k - 1)
    } else {
        last_dropped >= 5
    };
    let digits_value = (whole + u64::from(round_up)).clamp(lo, hi);

    let mut digits = [0u8; 20];
    let start = fill_digits(&mut digits, digits_value);
    let digits = &digits[start..];
    if negative {
        out.push(b'-');
    }
    // The number is `digits * 10^-fraction_len`.
    let fraction_len = q as isize - dropped as isize;
    let len = digits.len() as isize;
    if fraction_len <= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + fraction_len.unsigned_abs(), b'0');
    } else if len > fraction_len {
        let (int, frac) = digits.split_at((len - fraction_len) as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + (fraction_len - len) as usize, b'0');
        out.extend_from_slice(digits);
    }
    true
}
