//! Measurement plumbing shared by every workload: the command line,
//! output digests, latency samples, process CPU/RSS counters, spans, and
//! the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Seconds the timed phase runs for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// FNV-1a over 64-bit words: a digest of a workload's simulated output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (sorts it).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Process resource counters from `getrusage(RUSAGE_SELF)`.
#[derive(Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Resident high-water mark in KiB.
    pub max_rss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` first, then the thirteen other `long` counters.
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

impl Usage {
    /// Reads the counters of this process.
    pub fn now() -> Usage {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `Rusage` has the layout of the C `struct rusage` on
        // 64-bit Linux (two `timeval`s of two `long`s, then fourteen
        // `long`s), `ru` is a valid exclusive pointer for the call, and
        // RUSAGE_SELF (0) is always a valid `who`.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            max_rss_kib: ru.rest[0].max(0) as u64,
        }
    }
}

/// The CPU model from the `cpuid` brand string (`unknown` elsewhere).
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a call into a layer, made from the benchmark.
pub struct Span {
    /// Layer-qualified name, e.g. `overlay.census.sweep`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
}

/// In-memory span recorder. When disabled, [`Tracer::span`] is a plain
/// call: the untraced run pays one branch per span site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line: id, parent, name,
    /// start and end (seconds since the tracer was created).
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }

    /// Per-name totals: count, total seconds and self seconds (total
    /// minus the time covered by direct child spans), sorted by name.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut rows: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = rows.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += s.end - s.start - child[i];
        }
        rows.into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }
}

/// Metric kinds: which result a metric belongs in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Printed by the untraced run.
    EndToEnd,
    /// Printed by the traced run.
    PerLayer,
}

/// A workload's result: correctness accounting, metrics, and notes.
pub struct Report {
    /// Operations attempted (timed ops plus checked ops).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Human-readable check failures.
    pub failures: Vec<String>,
    /// Name, value, unit and tier of each metric, in insertion order.
    metrics: Vec<(String, f64, &'static str, Tier)>,
    /// Extra `key: value` lines printed before the result line.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one check over `ops` operations.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics
            .push((name.to_string(), value, unit, Tier::EndToEnd));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics
            .push((name.into(), value, unit, Tier::PerLayer));
    }

    /// Adds a note line.
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Metrics of one tier, in insertion order.
    pub fn metrics(&self, tier: Tier) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.metrics
            .iter()
            .filter(move |m| m.3 == tier)
            .map(|m| (m.0.as_str(), m.1, m.2))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, tier: Tier) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics(tier).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    format!("{x:?}")
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Pinned output digests, `perfbench/pins.txt`: one
/// `<workload> <size> <seed> <digest>` line each (`#` starts a comment).
pub struct Pins(Vec<(String, String, u64, String)>);

impl Pins {
    /// The pins compiled into the binary.
    pub fn load() -> Pins {
        let text = include_str!("../pins.txt");
        let rows = text
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(f.len(), 4, "malformed pin line: {l}");
                let seed = f[2].parse().expect("pin seed is a u64");
                (f[0].to_string(), f[1].to_string(), seed, f[3].to_string())
            })
            .collect();
        Pins(rows)
    }

    /// The pinned digest of `workload` at `size` and `seed`, if any.
    pub fn get(&self, workload: &str, size: &str, seed: u64) -> Option<&str> {
        self.0
            .iter()
            .find(|(w, z, s, _)| w == workload && z == size && *s == seed)
            .map(|r| r.3.as_str())
    }
}

/// Calls `pass(i)` until the timed seconds it returns add up to
/// `seconds`, and at least `min` times; returns every pass's seconds.
pub fn run_passes(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    while times.len() < min || times.iter().sum::<f64>() < seconds {
        times.push(pass(times.len()));
    }
    times
}

/// Seconds as a space-separated list with millisecond precision.
pub fn fmt_secs(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The median and 99th percentile of `samples`.
pub fn p50_p99(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (percentile(&samples, 50.0), percentile(&samples, 99.0))
}

/// Reports the end-to-end timings of a run (all but `peak_rss_mib`).
///
/// `setup_s` is the median set-up; `run_s` the mean seconds per pass
/// (timed seconds over passes); `ops_per_s` the ops of every pass over
/// the timed seconds; `op_p50_us`/`op_p99_us` the mean over passes of
/// each pass's per-op latency percentiles (`lat`, one pair per pass).
/// Passes repeat identical work; on a shared host a mean over the run
/// drifts less than a median or a minimum does.
pub fn report_passes(
    rep: &mut Report,
    setup: &mut [f64],
    pass_s: &[f64],
    ops_per_pass: u64,
    lat: &[(f64, f64)],
) {
    let total: f64 = pass_s.iter().sum();
    let passes = pass_s.len() as f64;
    rep.e2e("setup_s", median(setup), "s");
    rep.e2e("run_s", total / passes, "s");
    rep.e2e("ops_per_s", ops_per_pass as f64 * passes / total, "1/s");
    rep.e2e(
        "op_p50_us",
        lat.iter().map(|l| l.0).sum::<f64>() / passes,
        "us",
    );
    rep.e2e(
        "op_p99_us",
        lat.iter().map(|l| l.1).sum::<f64>() / passes,
        "us",
    );
    rep.note("pass_s", fmt_secs(pass_s));
    rep.note("setup_samples_s", fmt_secs(setup));
}

/// What every pass's digest must equal: the first pass's digest, and
/// the `full` pin for the run's seed where `pins.txt` has one.
pub struct Expected {
    pinned: Option<String>,
    first: Option<Digest>,
}

impl Expected {
    /// The expectation for `workload` at full size and `seed`.
    pub fn new(pins: &Pins, workload: &str, seed: u64) -> Expected {
        Expected {
            pinned: pins.get(workload, "full", seed).map(str::to_string),
            first: None,
        }
    }

    /// Whether a pass's digest `d` is the expected one.
    pub fn matches(&mut self, d: Digest) -> bool {
        let first = *self.first.get_or_insert(d);
        d == first && self.pinned.as_deref().is_none_or(|p| p == d.hex())
    }

    /// A failure message for digest `d`.
    pub fn mismatch(&self, d: Digest) -> String {
        format!(
            "pass digest {} differs from the first pass {} or the pin {:?}",
            d.hex(),
            self.first.map_or(String::new(), Digest::hex),
            self.pinned
        )
    }

    /// The first pass's digest.
    pub fn first(&self) -> Option<Digest> {
        self.first
    }
}
