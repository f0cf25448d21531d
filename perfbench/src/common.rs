//! Shared benchmark plumbing: options, the run report and its JSON line,
//! correctness-check bookkeeping, statistics, digests and host memory.

use std::fmt::Write as _;
use std::time::Instant;

/// How large a workload instance to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A few-second configuration for smoke tests.
    Tiny,
}

/// Options every workload receives.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed; every simulation, telemetry and plane seed derives
    /// from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Instance size.
    pub size: Size,
}

impl Opts {
    /// A child seed for `stream`, so each consumer draws its own inputs.
    pub fn derive(&self, stream: u64) -> u64 {
        splitmix(self.seed ^ splitmix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }
}

/// One finished metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Correctness bookkeeping: every operation the workload runs is checked,
/// and an operation fails if any of its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Individual checks evaluated.
    pub checks: u64,
    /// Human-readable description of every failed check (first few only).
    pub failures: Vec<String>,
    current_failed: bool,
}

impl Checks {
    /// Starts a new operation.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.current_failed = false;
    }

    /// Evaluates one check of the current operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            if !self.current_failed {
                self.failed += 1;
                self.current_failed = true;
            }
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// What a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics to print, in order.
    pub metrics: Vec<Metric>,
    /// Correctness bookkeeping.
    pub checks: Checks,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    /// A report holding every metric the run must print: the end-to-end
    /// catalog for an untraced run, the per-layer catalog for a traced
    /// one. End-to-end values start unset (NaN, which fails the run if
    /// never measured); per-layer values start at 0, which is what a layer
    /// the workload never runs reports.
    pub fn new(trace: bool) -> Report {
        let (catalog, init) = if trace {
            (crate::metrics::PER_LAYER, 0.0)
        } else {
            (crate::metrics::END_TO_END, f64::NAN)
        };
        Report {
            metrics: catalog
                .iter()
                .map(|d| Metric {
                    name: d.name,
                    unit: d.unit,
                    value: init,
                })
                .collect(),
            ..Report::default()
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this run's catalog (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's catalog"))
            .value = value;
    }

    /// Records one of the workload's headline figures (catalogued per
    /// layer): printed by name and unit on every run, and set in the
    /// traced run's JSON line.
    pub fn headline(&mut self, name: &'static str, value: f64) {
        let unit = crate::metrics::PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("headline {name} is not catalogued"))
            .unit;
        self.notes
            .push(format!("headline: {name} = {value} {unit}"));
        if self.metrics.iter().any(|m| m.name == name) {
            self.set(name, value);
        }
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
            && self.checks.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Budget conservation for `n` in-force caps summing to `total_w`: the sum
/// may exceed the budget only by the worst-case rounding error of summing
/// `n` floating-point terms (`n · ε · budget`). The initial leases, for
/// one, are `budget / n` each, and their sum can land an ulp above the
/// budget. A NaN total fails.
pub fn within_budget(total_w: f64, budget_w: f64, n: usize) -> bool {
    total_w <= budget_w + budget_w.abs() * n as f64 * f64::EPSILON
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a, used to hash result digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: a well-mixed 64-bit function of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for the benchmark's own synthetic inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `pass` repeatedly until `seconds` have elapsed and at least
/// `min_passes` passes ran. Returns every pass's output and the peak RSS
/// (MiB) right after the first pass: a pass is the workload run once, and
/// later passes only add allocator fragmentation from the repetition.
pub fn repeat_for<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = vec![pass()];
    let rss_mb = peak_rss_mb();
    while out.len() < min_passes || secs(start) < seconds {
        out.push(pass());
    }
    (out, rss_mb)
}
