//! The Bookshelf writer's numbers are byte-equal to `format!("{x}")`: every
//! file `write_design` emits depends on it. Edge values (every power of
//! two and its neighbours, subnormals, signed zeros, non-finite values,
//! integers around 2^53, exact ties, both ends of the formatter's fast
//! range) and seeded random values in every form the writer meets.

use dreamplace::bookshelf::decimal::push_f64;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The fixed edge values, then `random` seeded values.
fn values(seed: u64, random: usize) -> Vec<f64> {
    let mut v = vec![0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let bits = |x: f64, d: i64| f64::from_bits(x.to_bits().wrapping_add_signed(d));
    // Every power of two from 2^-1074 to 2^1023, and its neighbours.
    for e in -1074..=1023 {
        let p = 2f64.powi(e);
        for d in -2..=2 {
            v.extend([bits(p, d), -bits(p, d)]);
        }
    }
    // Integers around 2^53, where `{}` stops printing every digit.
    let two53 = 2f64.powi(53);
    for d in -2000..=2000 {
        v.extend([two53 + d as f64, -(two53 + d as f64)]);
    }
    // Both ends of the fast range (2^-13 and 2^52), and round decimals near
    // them.
    for x in [2f64.powi(-13), 2f64.powi(52), 1e-4, 1.2e-4, 9e15, 4.5e15] {
        for d in -50..=50 {
            v.extend([bits(x, d), -bits(x, d)]);
        }
    }
    // Exact ties: in [2^50, 2^51) the spacing is 0.25, and n + 0.25 sits
    // halfway between n.2 and n.3, both in its rounding interval.
    v.push(1_986_404_121_014_463.0 + 0.25);
    let mut rng = Rng(seed);
    for _ in 0..20_000 {
        let n = (1u64 << 50) + rng.next() % (1u64 << 50);
        v.extend([n as f64 + 0.25, n as f64 + 0.75, -(n as f64 + 0.25)]);
    }
    // Subnormals.
    for _ in 0..10_000 {
        v.push(f64::from_bits(rng.next() & ((1 << 52) - 1)));
    }
    let fixed = v.len();
    while v.len() < fixed + random {
        let r = rng.next();
        v.push(match r % 6 {
            // Any bit pattern.
            0 => f64::from_bits(rng.next()),
            // Pin offsets and coordinates: uniform over a few magnitudes.
            1 => (rng.unit() - 0.5) * 10f64.powi((r >> 8) as i32 % 12 - 3),
            // Multiples of a power of two (sizes, snapped coordinates).
            2 => (rng.next() >> 30) as f64 / 2f64.powi((r >> 8) as i32 % 12),
            // Short decimals.
            3 => (rng.next() % 100_000) as f64 / 10f64.powi((r >> 8) as i32 % 9),
            // Any exponent in the fast range and around it.
            4 => {
                let e = 1023 - 20 + (r >> 8) % 80;
                f64::from_bits((rng.next() & 0x800f_ffff_ffff_ffff) | (e << 52))
            }
            // Weights: small positive values.
            _ => rng.unit() * 4.0,
        });
    }
    v
}

fn assert_matches_std(values: &[f64]) {
    let mut buf = Vec::new();
    for &x in values {
        buf.clear();
        push_f64(&mut buf, x);
        let want = format!("{x}");
        assert!(
            buf == want.as_bytes(),
            "{x:e} (bits {:#018x}): wrote {:?}, `{{}}` prints {want:?}",
            x.to_bits(),
            String::from_utf8_lossy(&buf)
        );
    }
}

#[test]
fn writer_numbers_are_byte_equal_to_std_display() {
    let v = values(45, 950_000);
    assert!(v.len() >= 1_000_000, "only {} values", v.len());
    assert_matches_std(&v);
}

/// Ten million values; run with `--release -- --ignored`.
#[test]
#[ignore = "a 10^7-value sweep; CI runs it in release"]
fn writer_numbers_are_byte_equal_to_std_display_sweep() {
    assert_matches_std(&values(4545, 10_000_000));
}
