//! Order statistics shared by the workloads, the report and `compare`.

/// The median of `values` (mean of the middle pair for even counts);
/// NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here are
/// the ones a reader recomputes from the raw values. One value gives
/// `(v, v)`; none gives NaNs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // After the clamp `delta` may leave 0..=4: Python extrapolates
        // from the end pair there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail to report for `n` samples: the highest percentile in
/// [`TAIL_PERCENTILES`] that leaves at least ten samples beyond it, by
/// nearest rank. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
}

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    // The epsilon keeps 99.9% of 10000 at rank 9990 despite 99.9 having
    // no exact binary form.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// A latency or size distribution, kept raw until it is summarised.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    pub fn quartiles(&self) -> (f64, f64) {
        quartiles(&self.0)
    }

    /// The reportable tail ([`tail_percentile`]), if there is one.
    pub fn tail(&self) -> Option<f64> {
        let p = tail_percentile(self.0.len())?;
        let data = sorted(&self.0);
        Some(data[nearest_rank(p, data.len()) - 1])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Leading bits of a value that pick its [`Histogram`] bucket: a bucket's
/// midpoint is within 2^-SUB_BITS (0.1%) of every value in it.
const SUB_BITS: u32 = 10;
const HALF: usize = 1 << (SUB_BITS - 1);
/// Values up to 2^40 ns (about 18 minutes); longer ones are clamped.
const MAX_NS: u64 = (1 << 40) - 1;
const BUCKETS: usize = (40 - SUB_BITS as usize + 2) * HALF;

/// Durations counted in log-linear buckets. Unlike [`Samples`], its
/// memory is fixed however many operations a window serves, so a
/// workload's peak RSS does not follow its throughput.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

/// Bucket of `ns`: exact below 2^SUB_BITS, then the top SUB_BITS bits.
fn bucket(ns: u64) -> usize {
    let msb = 63 - (ns | 1).leading_zeros();
    if msb < SUB_BITS {
        return ns as usize;
    }
    let shift = msb + 1 - SUB_BITS;
    shift as usize * HALF + (ns >> shift) as usize
}

/// Midpoint of bucket `i`, in nanoseconds.
fn bucket_mid(i: usize) -> f64 {
    if i < 2 * HALF {
        return i as f64;
    }
    let shift = i / HALF - 1;
    let low = ((i - shift * HALF) as u64) << shift;
    low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn record(&mut self, d: std::time::Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(MAX_NS).min(MAX_NS);
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Value at percentile `p` by nearest rank, in nanoseconds; NaN when
    /// empty.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = nearest_rank(p, self.n) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("ranks stop at the sample count")
    }

    /// The reportable tail ([`tail_percentile`]), in nanoseconds.
    pub fn tail_ns(&self) -> Option<f64> {
        tail_percentile(self.n).map(|p| self.percentile_ns(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        // 999 samples: p99 is rank 990, leaving 9 beyond — not enough.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));

        let s = Samples((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(), Some(990.0));
        let beyond = s.0.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_tile_the_range_within_a_tenth_of_a_percent() {
        let mut last = 0;
        for ns in (0..200_000u64).chain([MAX_NS]) {
            let b = bucket(ns);
            assert!(b == last || b == last + 1 || ns == MAX_NS, "gap at {ns}");
            last = b;
            let err = (bucket_mid(b) - ns as f64).abs();
            assert!(err <= ns as f64 / 1024.0, "{ns} -> {}", bucket_mid(b));
        }
        assert_eq!(bucket(MAX_NS), BUCKETS - 1);
        assert_eq!(bucket_mid(bucket(1000)), 1000.0);
    }

    #[test]
    fn histogram_percentiles_follow_nearest_rank() {
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(std::time::Duration::from_micros(us));
        }
        let close = |got: f64, want_us: f64| (got / (want_us * 1e3) - 1.0).abs() < 1e-3;
        assert!(close(h.percentile_ns(50.0), 500.0));
        assert!(close(h.percentile_ns(25.0), 250.0));
        assert!(close(h.tail_ns().expect("1000 samples have a tail"), 990.0));
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!(twice.len(), 2000);
        assert!(close(twice.percentile_ns(50.0), 500.0));
        assert!(Histogram::default().percentile_ns(50.0).is_nan());
    }
}
