//! Shared pieces of the benchmark: the result report, statistics, process
//! clocks, the independent referee and the in-memory span recorder.

use std::fmt::Write as _;
use std::time::Instant;

use vlsi_hypergraph::{
    validate_partitioning, BalanceConstraint, FixedVertices, Hypergraph, PartId, Partitioning,
};

/// Times a workload's set-up. The first set-up builds the inputs; later
/// ones run between timed operations and are thrown away, so that the
/// median samples the same stretch of the shared machine's load as the
/// operations do (a few set-ups in a row read its speed of a moment only).
pub struct SetUps<T, F: FnMut() -> T> {
    setup: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetUps<T, F> {
    /// Runs and times the first set-up and returns its inputs.
    pub fn first(mut setup: F) -> (Self, T) {
        let t = Instant::now();
        let inputs = std::hint::black_box(setup());
        let times = vec![t.elapsed().as_secs_f64()];
        (SetUps { setup, times }, inputs)
    }

    /// Runs and times one more set-up; returns the seconds it took, which
    /// the caller keeps out of its operations' window.
    pub fn again(&mut self) -> f64 {
        let t = Instant::now();
        drop(std::hint::black_box((self.setup)()));
        let s = t.elapsed().as_secs_f64();
        self.times.push(s);
        s
    }

    /// The median set-up time and the number of set-ups.
    pub fn median(&self) -> (f64, usize) {
        (median(&self.times), self.times.len())
    }
}

/// One run's result: the metrics in print order plus the operation tally.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in the order they were added.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (solves, cells or requests).
    pub attempted: u64,
    /// Operations that failed: engine error, referee rejection, error
    /// reply or missing reply.
    pub failed: u64,
    /// False when an output the program reported as good was wrong, or a
    /// determinism or replica check did not hold.
    pub correct: bool,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Marks the run incorrect and says why.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// The human-readable lines followed by the one-line JSON result, which
    /// is always the last line of the output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<28} {value:>14.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} fail_frac={:.6} correct={}",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64),
            self.correct
        );
        let mut json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(json, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        json.push_str("}}");
        out.push_str(&json);
        out
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of `xs`, each clamped to at least 1 so that a zero cut
/// cannot zero the whole mean; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1.0).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// The tail of a latency sample: the highest percentile that leaves at
/// least ten samples beyond it, i.e. the eleventh-largest sample, as
/// `(percentile, value, samples)`. With ten samples or fewer it is the
/// maximum, reported as p100.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (100.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return (100.0, v[n - 1], n);
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11], n)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for) for the whole
    // call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB, 0 without procfs: the larger
/// of `VmHWM` and `VmRSS`, because some kernels raise the high-water mark
/// lazily and it can read below the current resident set.
pub fn peak_rss_mib() -> f64 {
    let peak = bench::mem::peak_rss_bytes().unwrap_or(0);
    let current = bench::mem::current_rss_bytes().unwrap_or(0);
    peak.max(current) as f64 / (1u64 << 20) as f64
}

/// The independent referee: fixity, balance and a from-scratch cut. Returns
/// the recomputed cut, or why the partition is illegal. A `claimed` cut
/// that disagrees with the recomputation is also a rejection.
pub fn referee(
    hg: &Hypergraph,
    k: usize,
    parts: Vec<PartId>,
    balance: &BalanceConstraint,
    fixed: &FixedVertices,
    claimed: Option<u64>,
) -> Result<u64, String> {
    let p = Partitioning::from_parts(hg, k, parts).map_err(|e| e.to_string())?;
    let report = validate_partitioning(hg, &p, balance, fixed);
    if !report.is_valid() {
        return Err(report.to_string());
    }
    match claimed {
        Some(c) if c != report.recomputed_cut => Err(format!(
            "claimed cut {c} but the referee recomputes {}",
            report.recomputed_cut
        )),
        _ => Ok(report.recomputed_cut),
    }
}

/// One timed call into a layer's public function.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    /// Request id for service jobs.
    pub request: Option<u64>,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder. Spans are only written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Records a span timed elsewhere (on another thread) as a child of the
    /// innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: at(start),
            end_s: at(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, None);
        let out = f();
        self.exit(id);
        out
    }

    /// Per span name, in first-seen order: how many spans, their total
    /// duration, and their self time (each span's duration minus the part
    /// its direct children cover).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = match out.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    out.push((s.name, 0, 0.0, 0.0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.dur();
            row.3 += s.dur() - child[i];
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9}",
                s.name, s.start_s, s.end_s
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Where a traced run leaves its span file, relative to the working
/// directory (the root of the checkout).
pub const SPAN_DIR: &str = "perfbench/out";

/// Writes `spans` to `perfbench/out/spans-<workload>-<seed>.jsonl` and
/// returns the path.
pub fn write_spans(spans: &Spans, workload: &str, seed: u64) -> std::io::Result<String> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{workload}-{seed}.jsonl");
    std::fs::write(&path, spans.to_jsonl())?;
    Ok(path)
}

/// The machine and build a result was measured on.
pub fn provenance(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        if level.trim() != "1" {
            caches.push(format!("L{}={}", level.trim(), size.trim()));
        }
    }
    format!(
        "provenance: nproc={nproc} cpu=\"{cpu}\" caches=[{}] rustc=\"{}\" commit={} seed={seed}",
        caches.join(","),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}
