//! A log-bucket (HDR-style) histogram with bounded memory.
//!
//! Values are `u64` ticks (or counts); each value lands in a bucket whose
//! width is `1/16` of its power-of-two magnitude, so the relative error of
//! any reported quantile is at most ~6% while the whole histogram is a
//! fixed array of 976 counters. All arithmetic is integral, so percentile
//! output is byte-identical across runs and thread counts.

use std::fmt;

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two.
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Buckets 0..16 are exact; each further power of two contributes 16
/// sub-buckets, up to the top bit of `u64`.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUBS + SUBS;

/// Index of the bucket covering `v`.
fn bucket_of(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUBS + sub
    }
}

/// Smallest value covered by bucket `idx` (the value a quantile reports).
fn bucket_low(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let group = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        let msb = group + SUB_BITS - 1;
        (1u64 << msb) + (sub << (msb - SUB_BITS))
    }
}

/// A fixed-size log-bucket histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use dds_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 100);
/// assert!(h.percentile(50.0) >= 47 && h.percentile(50.0) <= 53);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (a fixed ~8 KiB of counters).
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` occurrences of the same sample.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one (bucket-wise addition), used
    /// to aggregate per-run reports into sweep-level percentiles.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 for an empty histogram).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Renders the histogram as one compact JSON line carrying only the
    /// non-zero buckets, so a process can ship its samples to a collector
    /// that re-assembles them losslessly with [`Histogram::parse_json`]
    /// and [`Histogram::merge`] (the `run_net` orchestrator merges one
    /// such line per load-generator thread). Buckets are emitted in index
    /// order, so the line is deterministic for a given histogram.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
            self.count,
            self.sum,
            self.min(),
            self.max
        ));
        let mut first = true;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("[{idx}, {c}]"));
        }
        out.push_str("]}");
        out
    }

    /// Parses a histogram rendered by [`Histogram::to_json`]. Returns
    /// `None` on any malformed input (missing keys, bucket indexes out of
    /// range, bucket counts that do not add up to `count`) — never
    /// panics, so a truncated line from a killed process is rejected
    /// cleanly.
    pub fn parse_json(text: &str) -> Option<Histogram> {
        fn field(text: &str, key: &str) -> Option<u64> {
            let pat = format!("\"{key}\": ");
            let rest = &text[text.find(&pat)? + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }
        let count = field(text, "count")?;
        let sum = field(text, "sum")?;
        let min = field(text, "min")?;
        let max = field(text, "max")?;
        let open = text.find("\"buckets\": [")? + "\"buckets\": [".len();
        let close = text[open..].rfind(']')? + open;
        let mut h = Histogram::new();
        let mut total = 0u64;
        let body = &text[open..close];
        for pair in body.split("], [") {
            let pair = pair.trim_matches(|c| c == '[' || c == ']' || c == ' ');
            if pair.is_empty() {
                continue;
            }
            let (idx, c) = pair.split_once(", ")?;
            let idx: usize = idx.parse().ok()?;
            let c: u64 = c.parse().ok()?;
            if idx >= BUCKETS {
                return None;
            }
            // No bucket exceeds the total, so checking the total first
            // keeps the bucket add from overflowing too.
            total = total.checked_add(c)?;
            h.counts[idx] += c;
        }
        if total != count {
            return None;
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Some(h)
    }

    /// The value at percentile `p` (in `0..=100`): the lower bound of the
    /// bucket containing the sample of that rank, clamped to the observed
    /// `min`/`max` so exact extremes survive bucketing. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p99={} max={}",
            self.count,
            self.min(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            assert_eq!(bucket_low(bucket_of(v)), v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn bucket_low_is_a_lower_bound_within_six_percent() {
        for v in [16u64, 17, 100, 1000, 65_535, 1 << 40, u64::MAX] {
            let low = bucket_low(bucket_of(v));
            assert!(low <= v, "low {low} > v {v}");
            // Relative error of the bucket lower bound is < 1/16.
            assert!((v - low) as f64 <= v as f64 / 16.0, "v={v} low={low}");
        }
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((470..=530).contains(&p50), "p50 = {p50}");
        assert!((930..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=50u64 {
            a.record(v);
        }
        for v in 51..=100u64 {
            b.record(v);
        }
        let mut whole = Histogram::new();
        for v in 1..=100u64 {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.percentile(50.0), whole.percentile(50.0));
        assert_eq!(a.percentile(99.0), whole.percentile(99.0));
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(7, 5);
        a.record_n(9, 0);
        for _ in 0..5 {
            b.record(7);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 100, 4096, 1 << 33, u64::MAX] {
            h.record(v);
        }
        h.record_n(250, 1000);
        let line = h.to_json();
        assert!(!line.contains('\n'));
        let back = Histogram::parse_json(&line).expect("roundtrip");
        assert_eq!(back, h);
        // Merging parsed halves equals recording everything in one place.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 101..=200u64 {
            b.record(v);
        }
        let mut merged = Histogram::parse_json(&a.to_json()).unwrap();
        merged.merge(&Histogram::parse_json(&b.to_json()).unwrap());
        let mut whole = Histogram::new();
        for v in 1..=200u64 {
            whole.record(v);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Histogram::parse_json("").is_none());
        assert!(Histogram::parse_json("{\"count\": 1}").is_none());
        // Truncated mid-buckets.
        let line = {
            let mut h = Histogram::new();
            h.record(5);
            h.record(500);
            h.to_json()
        };
        assert!(Histogram::parse_json(&line[..line.len() - 6]).is_none());
        // Bucket index out of range.
        assert!(Histogram::parse_json(
            "{\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, \"buckets\": [[99999, 1]]}"
        )
        .is_none());
        // Counts that do not add up.
        assert!(Histogram::parse_json(
            "{\"count\": 3, \"sum\": 3, \"min\": 1, \"max\": 1, \"buckets\": [[1, 1]]}"
        )
        .is_none());
        // Two entries for one bucket whose sum overflows u64.
        assert!(Histogram::parse_json(
            "{\"count\": 0, \"sum\": 0, \"min\": 0, \"max\": 0, \"buckets\": \
             [[1, 9223372036854775808], [1, 9223372036854775808]]}"
        )
        .is_none());
        // Empty histogram survives.
        let empty = Histogram::new();
        assert_eq!(Histogram::parse_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn display_mentions_quantiles() {
        let mut h = Histogram::new();
        h.record(3);
        let s = h.to_string();
        assert!(s.contains("p50=3"), "{s}");
        assert!(s.contains("n=1"), "{s}");
    }
}
