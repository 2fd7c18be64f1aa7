//! Host-side measurement: the wall clock, order statistics, the OS's peak
//! resident memory, and the benchmark's own spans around calls into layers.

use std::collections::BTreeMap;
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Stopwatch {
        // fedlint: allow(wall-clock) — the host clock is what a benchmark
        // measures; it times calls from outside and never feeds a run, so
        // runs stay reproducible.
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let watch = Stopwatch::start();
    let out = f();
    (watch.secs(), out)
}

/// Median of the samples (mean of the middle two for an even count); NaN
/// when there are none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process so far, in KiB, as the kernel
/// reports it (`getrusage(RUSAGE_SELF).ru_maxrss`).
#[cfg(target_os = "linux")]
#[must_use]
pub fn peak_rss_kib() -> u64 {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (the only target this compiles for),
    // and `getrusage` writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    u64::try_from(usage.longs[0]).expect("ru_maxrss is non-negative")
}

/// Peak resident memory is read from the kernel, which this benchmark only
/// knows how to do on Linux.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn peak_rss_kib() -> u64 {
    panic!("peak memory is measured with Linux getrusage; this host is not Linux")
}

/// One recorded span: a named interval and the span that encloses it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// The benchmark's own trace: spans around each call it makes into a
/// layer, kept in memory and summarised when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name`, nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_s = self.origin.secs();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.secs();
        out
    }

    /// Per-name totals, `(count, total seconds, self seconds)`, where self
    /// time is a span's duration minus the part its child spans cover.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.end_s - span.start_s;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_secs) {
            let total = span.end_s - span.start_s;
            let row = out.entry(span.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total - children;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.span("outer", |s| {
            s.span("inner", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        let summary = spans.summary();
        let (outer_n, outer_total, outer_self) = summary["outer"];
        let (inner_n, inner_total, _) = summary["inner"];
        assert_eq!((outer_n, inner_n), (1, 1));
        assert!((outer_total - inner_total - outer_self).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_kib() >= 64 << 10);
    }
}
