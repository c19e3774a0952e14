//! Shared machinery: the timed pass loop, order statistics, output
//! digests, peak RSS, and the in-memory span tracer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::Instant;

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Cells run in the measured passes.
    pub attempted: u64,
    /// Of those, cells that panicked or failed an output check.
    pub failed: u64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`); names outside the
    /// workload's path are filled with 0 by `main`.
    pub layers: Vec<Metric>,
    /// Check results and fidelity figures, printed above the metrics.
    pub notes: Vec<String>,
    /// Spans of the traced passes, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Reports `values` as `<name>.p50` and `<name>.tail` (see [`tail`]).
    pub fn layer_dist(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let (p, tail_value) = tail(values);
        self.layer(&format!("{name}.p50"), median(values), unit);
        self.layer(&format!("{name}.tail"), tail_value, unit);
        self.note(format!(
            "{name}: p50 {:.4} {unit}, tail p{p} {:.4} {unit} over {} samples",
            median(values),
            tail_value,
            values.len()
        ));
    }

    /// Pushes the end-to-end metrics and returns `run_s`. A pass runs one
    /// or more phases; `phases[p]` holds phase `p` of every pass.
    ///
    /// `run_s` sums each phase's [`representative`] run at the reference
    /// machine's speed ([`Phase::at_reference`]); the fastest, median and
    /// slowest host seconds are printed beside it. Peak RSS is read here, at the
    /// end of the measured passes; an unreadable value ends the run
    /// without a result.
    pub fn e2e_throughput(
        &mut self,
        setups: &mut Setups,
        phases: &[Vec<Phase>],
        cells_per_pass: u64,
        bits_per_cell: f64,
    ) -> f64 {
        let peak_rss = peak_rss_mb().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        let mut run_s = 0.0;
        for phase in phases {
            let samples: Vec<f64> = phase.iter().map(|p| p.host_s).collect();
            let at_reference: Vec<f64> = phase.iter().map(Phase::at_reference).collect();
            run_s += representative(&at_reference);
            self.note(format!(
                "measured phase: {} runs, host s fastest {:.4}, median {:.4}, slowest {:.4}; at reference speed median {:.4}",
                samples.len(),
                samples.iter().copied().fold(f64::INFINITY, f64::min),
                median(&samples),
                samples.iter().copied().fold(0.0, f64::max),
                representative(&at_reference),
            ));
        }
        let slowdown: Vec<f64> = phases.iter().flatten().map(|p| p.slowdown).collect();
        self.note(format!(
            "host slowdown against the reference: median {:.3}, range {:.3}-{:.3}",
            median(&slowdown),
            slowdown.iter().copied().fold(f64::INFINITY, f64::min),
            slowdown.iter().copied().fold(0.0, f64::max),
        ));
        let samples = setups.finish();
        let setup_s = median(samples);
        self.note(format!(
            "set-up: {} processes, host s fastest {:.5}, median {setup_s:.5}, slowest {:.5}",
            samples.len(),
            samples.iter().copied().fold(f64::INFINITY, f64::min),
            samples.iter().copied().fold(0.0, f64::max),
        ));
        let cells_per_s = cells_per_pass as f64 / run_s;
        self.e2e("setup_s", setup_s, "s");
        self.e2e("run_s", run_s, "s");
        self.e2e("cells_per_s", cells_per_s, "1/s");
        self.e2e("sim_bits_per_s", cells_per_s * bits_per_cell, "bits/s");
        self.e2e("peak_rss_mb", peak_rss, "MiB");
        run_s
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a check: `failed_cells` of the measured cells failed it.
    pub fn check(&mut self, name: &str, failed_cells: u64, detail: String) {
        let verdict = if failed_cells == 0 { "ok" } else { "FAILED" };
        self.note(format!("check {name}: {verdict} ({detail})"));
        self.failed += failed_cells;
    }
}

/// Runs `pass` until `seconds` of host time have been spent, at least
/// `min_passes` times. The clock runs only around `pass`; `summarize`
/// (the output check's input, usually a digest) runs outside it so the
/// pass output can be dropped before the next pass. A panicking pass
/// yields `Err` with the panic message. With a `tracer`, every untraced
/// pass is followed by one `traced` pass, so both see the same host
/// conditions.
/// After each pass `between` gets the share of `seconds` spent so far;
/// its own time does not count.
pub fn measure<T, S>(
    seconds: f64,
    min_passes: usize,
    mut tracer: Option<&mut Tracer>,
    mut pass: impl FnMut() -> T,
    mut summarize: impl FnMut(Result<T, String>) -> S,
    mut traced: impl FnMut(&mut Tracer),
    mut between: impl FnMut(f64),
) -> Vec<(f64, S)> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < min_passes || spent < seconds {
        let start = Instant::now();
        let result = catch(&mut pass);
        let elapsed = start.elapsed().as_secs_f64();
        out.push((elapsed, summarize(result)));
        if let Some(t) = tracer.as_deref_mut() {
            traced(t);
        }
        spent += start.elapsed().as_secs_f64();
        between(if seconds > 0.0 { spent / seconds } else { 1.0 });
    }
    out
}

/// Host seconds [`calibration`] takes on the reference machine (the
/// shared 2-vCPU Intel Xeon, 2.0 GHz, of the README), median of quiet runs.
const CALIBRATION_REFERENCE_S: f64 = 0.0170;

/// A fixed piece of work of the benchmark's own that never calls the
/// program: 24 rounds of filling 32,768 integers from an xorshift
/// generator and sorting them (256 KiB, so peak RSS barely moves).
pub fn calibration() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v = vec![0u64; 1 << 15];
    let mut acc = 0;
    for _ in 0..24 {
        for e in v.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        v.sort_unstable();
        acc ^= std::hint::black_box(&v)[v.len() / 2];
    }
    acc
}

/// How much slower the host runs now than the reference machine did:
/// the host seconds of one [`calibration`] over
/// [`CALIBRATION_REFERENCE_S`]. On a shared virtual machine the host's
/// speed moves by tens of percent for seconds to minutes at a time, and
/// the program and the calibration slow down together.
pub fn slowdown() -> f64 {
    timed(|| {
        std::hint::black_box(calibration());
    }) / CALIBRATION_REFERENCE_S
}

/// One timed phase of a pass: its host seconds and the host's
/// [`slowdown`] around it.
#[derive(Clone, Copy)]
pub struct Phase {
    pub host_s: f64,
    pub slowdown: f64,
}

impl Phase {
    /// Host seconds at the reference machine's speed.
    pub fn at_reference(&self) -> f64 {
        self.host_s / self.slowdown
    }
}

/// Times the consecutive phases of one pass. The [`calibration`] runs
/// once up front and once after every phase; a phase's slowdown is the
/// mean of the two around it. The calibrations are part of the pass, so
/// their time counts towards the measured seconds.
pub struct PhaseClock {
    before: f64,
}

impl PhaseClock {
    pub fn new() -> Self {
        PhaseClock { before: slowdown() }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (Phase, T) {
        let start = Instant::now();
        let out = f();
        let host_s = start.elapsed().as_secs_f64();
        let after = slowdown();
        let phase = Phase {
            host_s,
            slowdown: (self.before + after) / 2.0,
        };
        self.before = after;
        (phase, out)
    }
}

/// Host seconds `f` takes.
pub fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Runs `f`, turning a panic into `Err(message)`.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The figure a phase's runs are reduced to in `run_s`: their median. On
/// a shared virtual machine the fastest of many short runs depends on how
/// quiet the host happened to be; the median of the same runs moves far
/// less between runs of the benchmark.
pub fn representative(samples: &[f64]) -> f64 {
    median(samples)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p99.9/p99/p95/p90 with at least ten samples above it
/// (the maximum when there are fewer than 100 samples), as
/// `(percentile label, nearest-rank value)`.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return ("100", 0.0);
    }
    for (label, q) in [("99.9", 0.999), ("99", 0.99), ("95", 0.95), ("90", 0.9)] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            return (label, v[rank - 1]);
        }
    }
    ("100", v[n - 1])
}

/// FNV-1a over the bytes of a deterministic output. Only program
/// outputs are digested — never host timings, paths or shard counts.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering.
pub fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    digest(format!("{value:?}").as_bytes())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Child processes started per run to measure `setup_s`.
const SETUPS: usize = 41;

/// The `setup_s` samples of one run: host seconds from starting a process
/// of this benchmark with the run's arguments and `--setup-only` until it
/// has built the workload's inputs and exited. The children are spread
/// over the measured time, so a few slow seconds of the host move only a
/// few of them. They are not scaled by a [`calibration`]: most of a child
/// is process start-up, which did not follow it. Every child is waited
/// for; one that cannot start or fails ends the run without a result.
pub struct Setups {
    exe: std::path::PathBuf,
    argv: Vec<String>,
    samples: Vec<f64>,
}

impl Setups {
    pub fn new(argv: &[String]) -> Self {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("error: cannot locate the benchmark: {e}");
            std::process::exit(1);
        });
        Setups {
            exe,
            argv: argv.to_vec(),
            samples: Vec::with_capacity(SETUPS),
        }
    }

    /// Starts children until their share of [`SETUPS`] reaches
    /// `progress`, the share of the measured time already spent.
    pub fn keep_up(&mut self, progress: f64) {
        let due = ((SETUPS as f64 * progress).ceil() as usize).min(SETUPS);
        while self.samples.len() < due {
            let start = Instant::now();
            let status = Command::new(&self.exe)
                .args(&self.argv)
                .arg("--setup-only")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status();
            self.samples.push(start.elapsed().as_secs_f64());
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("error: set-up process failed: {s}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("error: cannot start {}: {e}", self.exe.display());
                    std::process::exit(1);
                }
            }
        }
    }

    /// Starts the children still due and returns all [`SETUPS`] samples;
    /// `setup_s` is their median.
    pub fn finish(&mut self) -> &[f64] {
        self.keep_up(1.0);
        &self.samples
    }
}

/// One host-time span recorded by the benchmark around a call into a
/// layer's public function.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Cell identifier shared by every span of one cell.
    pub cell: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the same code runs untraced.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `cell`; spans
    /// opened inside `f` get this one as parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            cell,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Durations in nanoseconds of every span named `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Duration in nanoseconds of the latest span named `name`.
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, Span::ns)
    }

    /// The median span named `name` of cell `cell` (the lower middle for
    /// an even count): its rank among those spans, its id and its duration
    /// in nanoseconds.
    pub fn median_span(&self, name: &str, cell: u64) -> Option<(usize, u32, u64)> {
        let mut runs: Vec<(usize, u32, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.cell == cell)
            .enumerate()
            .map(|(nth, s)| (nth, s.id, s.ns()))
            .collect();
        runs.sort_by_key(|&(_, _, ns)| ns);
        runs.get(runs.len().saturating_sub(1) / 2).copied()
    }

    /// Total nanoseconds of the spans named `name` inside span `root`, at
    /// any depth.
    pub fn sum_within(&self, root: u32, name: &str) -> u64 {
        let inside = |s: &Span| {
            let mut parent = s.parent;
            while let Some(p) = parent {
                if p == root {
                    return true;
                }
                parent = self.spans[p as usize].parent;
            }
            false
        };
        self.spans[root as usize + 1..]
            .iter()
            .take_while(|s| s.start_ns <= self.spans[root as usize].end_ns)
            .filter(|s| s.name == name && inside(s))
            .map(Span::ns)
            .sum()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: `(count, total ns, self ns)`, where self time is the
/// span's duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.ns();
        e.2 += s.ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// Renders spans as JSON lines (`id`, `parent`, `cell`, `name`,
/// `start_ns`, `end_ns`).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"cell\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.cell, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_above_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), ("99", 990.0));
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), ("100", 50.0));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert_eq!(t.median_span("outer", 7).map(|f| (f.0, f.1)), Some((0, 0)));
        assert_eq!(t.sum_within(0, "inner"), t.last_ns("inner"));
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.cell == 7));
        let st = self_times(&spans);
        let (_, outer_total, outer_self) = st["outer"];
        let (_, inner_total, _) = st["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
    }

    #[test]
    fn a_disabled_tracer_runs_the_code_and_records_nothing() {
        let mut t = Tracer::disabled();
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 42));
        assert_eq!(v, 42);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn panicking_pass_is_reported_not_propagated() {
        let out = measure(
            0.0,
            2,
            None,
            || -> u32 { panic!("boom") },
            |r| r.is_err(),
            |_| {},
            |_| {},
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, failed)| *failed));
    }
}
