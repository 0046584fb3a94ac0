//! Exact order statistics over raw samples, and span self-time arithmetic.
//!
//! Every latency quantile the benchmark reports is computed here from the
//! raw client-side samples — never from the serving stack's `/metrics`
//! histograms, whose power-of-two buckets cannot resolve a 10–20% change.

use std::collections::BTreeMap;

/// Percentiles a tail may be reported at, highest first, in basis points
/// (hundredths of a percent) so rank arithmetic stays exact.
const TAIL_BP: [u64; 4] = [9990, 9900, 9000, 5000];

/// 1-based nearest rank of the `bp`-basis-point quantile among `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    let r = (n as u64 * bp).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `bp / 10000` of all samples at or below it.
pub fn quantile_bp(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), bp) - 1]
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Ascending copy (total order, so NaN cannot panic the sort).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest reportable tail percentile, in basis points, for `n`
/// samples: the highest of p99.9/p99/p90/p50 with at least ten samples
/// ranked beyond it. `None` when even the median has fewer than ten.
pub fn tail_bp(n: usize) -> Option<u64> {
    TAIL_BP.iter().copied().find(|&bp| n >= rank(n, bp) + 10)
}

/// Latency summary of one sample set (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported, in basis points (`None` = the
    /// maximum, because no percentile has ten samples beyond it).
    pub tail_bp: Option<u64>,
    /// The tail value: that percentile, or the maximum.
    pub tail: f64,
}

impl Summary {
    /// Summarise raw samples; NaN values when there are none.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                n: 0,
                p50: f64::NAN,
                tail_bp: None,
                tail: f64::NAN,
            };
        }
        let s = sorted(xs);
        let tail_bp = tail_bp(s.len());
        Summary {
            n: s.len(),
            p50: median(&s),
            tail_bp,
            tail: match tail_bp {
                Some(bp) => quantile_bp(&s, bp),
                None => *s.last().expect("non-empty"),
            },
        }
    }

    /// `"p99"`, `"p99.9"`, or `"max"`.
    pub fn tail_label(&self) -> String {
        match self.tail_bp {
            Some(bp) if bp % 100 == 0 => format!("p{}", bp / 100),
            Some(bp) => format!("p{}", bp as f64 / 100.0),
            None => "max".into(),
        }
    }
}

/// One completed span, as the journal records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Nesting depth on that thread at entry.
    pub depth: u16,
    /// Start, µs since journal start.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

/// Self time per span name, summed: each span's duration minus the part
/// its direct children (same thread, one level deeper, opened inside it)
/// cover. Spans on one thread nest strictly, so children never overlap
/// each other and the covered part is the sum of their durations, capped
/// at the parent's own duration against µs rounding.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut order: Vec<&SpanRec> = spans.iter().collect();
    order.sort_by_key(|s| (s.tid, s.start_us, s.depth));
    let mut covered = vec![0u64; order.len()];
    // Open ancestors of the current span: (index into `order`, depth).
    let mut stack: Vec<(usize, u16)> = Vec::new();
    let mut tid = None;
    for (i, s) in order.iter().enumerate() {
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        while stack.last().is_some_and(|&(_, d)| d >= s.depth) {
            stack.pop();
        }
        if let Some(&(p, d)) = stack.last() {
            if d + 1 == s.depth {
                covered[p] += s.dur_us;
            }
        }
        stack.push((i, s.depth));
    }
    let mut out = BTreeMap::new();
    for (s, c) in order.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.dur_us.saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_bp(&xs, 5000), 50.0);
        assert_eq!(quantile_bp(&xs, 9000), 90.0);
        assert_eq!(quantile_bp(&xs, 9900), 99.0);
        assert_eq!(quantile_bp(&xs, 10_000), 100.0);
        assert_eq!(quantile_bp(&[7.0], 9900), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_bp(19), None);
        assert_eq!(tail_bp(20), Some(5000));
        assert_eq!(tail_bp(99), Some(5000));
        assert_eq!(tail_bp(100), Some(9000));
        assert_eq!(tail_bp(999), Some(9000));
        assert_eq!(tail_bp(1000), Some(9900));
        assert_eq!(tail_bp(10_000), Some(9990));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.p50, s.tail), (1000, 500.5, 990.0));
        assert_eq!(s.tail_label(), "p99");
        let few = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((few.tail, few.tail_label().as_str()), (9.0, "max"));
        assert!(Summary::of(&[]).p50.is_nan());
    }

    fn span(name: &'static str, tid: u32, depth: u16, start_us: u64, dur_us: u64) -> SpanRec {
        SpanRec {
            name,
            tid,
            depth,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            // Thread 0: op [0, 100) holds a [0, 40) (which holds g [10, 30))
            // and b [50, 90); listed in completion order, as journals are.
            span("g", 0, 2, 10, 20),
            span("a", 0, 1, 0, 40),
            span("b", 0, 1, 50, 40),
            span("op", 0, 0, 0, 100),
            // Thread 1 interleaves in time but never nests into thread 0.
            span("a", 1, 0, 5, 30),
            span("g", 1, 1, 6, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"], 100 - 40 - 40);
        assert_eq!(t["a"], (40 - 20) + (30 - 10));
        assert_eq!(t["b"], 40);
        assert_eq!(t["g"], 20 + 10);
        // Self times partition each thread's root span exactly.
        assert_eq!(t["op"] + 20 + t["b"] + 20, 100);
    }

    #[test]
    fn self_time_never_goes_negative_under_rounding() {
        let spans = [span("child", 0, 1, 0, 11), span("parent", 0, 0, 0, 10)];
        let t = self_times(&spans);
        assert_eq!(t["parent"], 0);
        assert_eq!(t["child"], 11);
    }
}
