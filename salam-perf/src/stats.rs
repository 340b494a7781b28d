//! The benchmark's statistics: percentiles, the tail-percentile rule,
//! quartiles and the pair-win rule for claiming a gain, and the digest
//! comparison behind the stats-identity gate.

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// measured duration or ratio).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds no NaN"));
    v
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Geometric mean of a sample of positive values; 0 for an empty one.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest first (integers, so that 99.9 is exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&t| n * (1000 - t) / 1000 >= 10)
        .map(|t| t as f64 / 10.0)
}

/// First, second and third quartile by the exclusive method, the default
/// of Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values);
    let n = d.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Outcome of comparing paired runs of a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairVerdict {
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs the change lost.
    pub losses: usize,
    /// Pairs that read exactly the same.
    pub ties: usize,
    /// Whether the change may claim a gain: it wins at least nine tenths
    /// of all pairs (ties count for neither side) and the medians differ
    /// by more than the parent's own quartile distance.
    pub gain: bool,
}

/// Applies the nine-tenths pair-win rule to `parent[i]` vs `change[i]`.
pub fn pair_verdict(parent: &[f64], change: &[f64], higher_is_better: bool) -> PairVerdict {
    assert_eq!(parent.len(), change.len(), "runs must come in pairs");
    let (mut wins, mut losses, mut ties) = (0, 0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        let better = if higher_is_better { c > p } else { c < p };
        if c == p {
            ties += 1;
        } else if better {
            wins += 1;
        } else {
            losses += 1;
        }
    }
    let pairs = parent.len();
    let (q1, pm, q3) = quartiles(parent);
    let cm = median(change);
    let moved = if higher_is_better { cm - pm } else { pm - cm };
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && moved > q3 - q1;
    PairVerdict {
        wins,
        losses,
        ties,
        gain,
    }
}

/// 64-bit FNV-1a over a byte stream, rendered as 16 hex digits.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in, followed by a separator so `("ab","c")` and
    /// `("a","bc")` differ.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one string.
pub fn digest_of(text: &str) -> String {
    let mut d = Digest::default();
    d.update(text.as_bytes());
    d.hex()
}

/// How a run's workload digest compares with the pinned one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DigestCheck {
    /// The seed has a pin and the digest equals it.
    Match,
    /// The seed has a pin and the digest differs.
    Mismatch {
        /// The pinned digest.
        pinned: String,
    },
    /// The seed has no pin; only the in-run checks apply.
    Unpinned,
}

/// Compares a run's digest with the pin for its seed, if any.
pub fn check_digest(pinned: Option<&str>, got: &str) -> DigestCheck {
    match pinned {
        None => DigestCheck::Unpinned,
        Some(p) if p.eq_ignore_ascii_case(got) => DigestCheck::Match,
        Some(p) => DigestCheck::Mismatch {
            pinned: p.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn geomean_weighs_every_value_alike() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Halving any one value moves the mean by the same factor.
        let a = geomean(&[2.0, 50.0, 300.0]);
        assert!((geomean(&[1.0, 50.0, 300.0]) - geomean(&[2.0, 50.0, 150.0])).abs() < 1e-9);
        assert!(geomean(&[1.0, 50.0, 300.0]) < a);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nine_tenths_pair_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Every pair faster by 20: a gain for a lower-is-better metric.
        let fast: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let v = pair_verdict(&parent, &fast, false);
        assert_eq!((v.wins, v.losses, v.ties), (10, 0, 0));
        assert!(v.gain);
        // The same runs read as a loss when higher is better.
        assert!(!pair_verdict(&parent, &fast, true).gain);
        // Eight wins of ten is below nine tenths.
        let mut mixed = fast.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!pair_verdict(&parent, &mixed, false).gain);
        // Nine wins and a tie: ties count for neither side, 9/10 suffices.
        let mut tied = fast.clone();
        tied[3] = parent[3];
        let v = pair_verdict(&parent, &tied, false);
        assert_eq!((v.wins, v.ties), (9, 1));
        assert!(v.gain);
        // Wins every pair but by less than the parent's quartile distance.
        let close: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let v = pair_verdict(&parent, &close, false);
        assert_eq!(v.wins, 10);
        assert!(!v.gain);
    }

    #[test]
    fn digest_comparison() {
        let a = digest_of("cycles=12300");
        assert_eq!(a.len(), 16);
        assert_eq!(a, digest_of("cycles=12300"));
        assert_ne!(a, digest_of("cycles=12301"));
        let mut split1 = Digest::default();
        split1.update(b"ab");
        split1.update(b"c");
        let mut split2 = Digest::default();
        split2.update(b"a");
        split2.update(b"bc");
        assert_ne!(split1.hex(), split2.hex());
        assert_eq!(check_digest(Some(&a), &a), DigestCheck::Match);
        assert_eq!(
            check_digest(Some(&a.to_uppercase()), &a),
            DigestCheck::Match
        );
        assert_eq!(
            check_digest(Some("0000000000000000"), &a),
            DigestCheck::Mismatch {
                pinned: "0000000000000000".into()
            }
        );
        assert_eq!(check_digest(None, &a), DigestCheck::Unpinned);
    }
}
