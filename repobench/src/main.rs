//! Output-checked benchmark of the MichiCAN reproduction.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <detection_sweep|fault_campaign|defense_grid_observed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs serially through the public `bench` entry points
//! that `experiments` calls, with default `ExecOpts`. Passes are timed
//! for `--seconds`; outputs are checked outside the timed passes; the
//! last stdout line is one JSON object. The exit code is nonzero when any
//! output check fails. See `repobench/README.md`.

mod campaign;
mod common;
mod defense;
mod detection;
mod ladder;
mod pinned;

use std::hint::black_box;

use common::Report;

pub const WORKLOADS: [&str; 3] = ["detection_sweep", "fault_campaign", "defense_grid_observed"];

/// End-to-end metrics, reported with `--trace 0`.
const E2E: [&str; 6] = [
    "setup_s",
    "run_s",
    "cells_per_s",
    "sim_bits_per_s",
    "peak_rss_mb",
    "passed_frac",
];

/// Per-layer metrics, reported with `--trace 1`, with their units. A name
/// that is not on the traced workload's path reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut dist = |name: &str, unit: &'static str| {
        out.push((format!("{name}.p50"), unit));
        out.push((format!("{name}.tail"), unit));
    };
    dist("michican.detect.range_us", "us");
    dist("michican.fsm.build_us", "us");
    dist("michican.fsm.verify_us", "us");
    dist("michican.fsm.nodes", "count");
    dist("bench.campaign.cell_ms", "ms");
    for engine in ladder::ENGINES {
        dist(&format!("bench.campaign.cell_ms.{engine}"), "ms");
    }
    dist("bench.attackzoo.build_us", "us");
    dist("bench.idsbench.build_us", "us");
    dist("can_sim.simulate_ms", "ms");
    dist("bench.attackzoo.reduce_us", "us");
    dist("bench.idsbench.reduce_us", "us");
    out.push(("bench.detection.residual_s".into(), "s"));
    out.push(("bench.campaign.reduce_ms".into(), "ms"));
    out.push(("bench.campaign.invariant_violations".into(), "count"));
    for (name, unit) in [
        ("can_ids.detectors_ns_per_bit", "ns/bit"),
        ("can_obs.journal.events", "count"),
        ("can_obs.journal.export_ms", "ms"),
        ("can_obs.snapshot_ms", "ms"),
        ("can_trace.chrome_ms", "ms"),
        ("can_obs.export_bytes", "bytes"),
        ("bench.runner.merge_ms", "ms"),
        ("can_sim.kernel.lockstep_bits", "count"),
        ("can_sim.kernel.skipped_bits", "count"),
        ("can_sim.kernel.packed_bits", "count"),
        ("can_sim.kernel.stretches", "count"),
    ] {
        out.push((name.into(), unit));
    }
    for cause in can_sim::telemetry::FallbackCause::ALL {
        out.push((format!("can_sim.fallback.{}", cause.label()), "count"));
    }
    out.push(("can_sim.packed.useful_ratio".into(), "ratio"));
    for step in ladder::STEPS {
        for engine in ladder::ENGINES {
            out.push((format!("layers.{step}.ns_per_bit.{engine}"), "ns/bit"));
        }
        out.push((format!("layers.{step}.packed_fallbacks"), "count"));
    }
    out.push(("layers.residual_ns_per_bit".into(), "ns/bit"));
    out.push(("bench.trace.overhead_s".into(), "s"));
    out
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Build the workload's inputs and exit: one `setup_s` sample.
    pub setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pinned::PINNED_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Tracing overhead: the traced runs of a pass minus untraced runs of the
/// same pass (the same code with [`common::Tracer::disabled`]), each
/// reduced as `run_s` reduces its runs.
pub fn trace_overhead(report: &mut Report, traced_s: &[f64], untraced_s: &[f64]) {
    let traced = common::representative(traced_s);
    let untraced = common::representative(untraced_s);
    report.layer("bench.trace.overhead_s", traced - untraced, "s");
    report.note(format!(
        "tracing: traced pass {traced:.4} s vs the same pass untraced {untraced:.4} s ({} and {} runs)",
        traced_s.len(),
        untraced_s.len()
    ));
}

/// 0 when every measured cell passed its checks, 1 otherwise.
pub fn exit_code(report: &Report) -> i32 {
    i32::from(report.failed > 0 || report.attempted == 0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: repobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
        std::process::exit(2);
    });
    if args.setup_only {
        match args.workload.as_str() {
            "detection_sweep" => drop(black_box(detection::inputs(args.seed))),
            "fault_campaign" => drop(black_box(campaign::inputs(args.seed))),
            _ => drop(black_box(defense::inputs(args.seed))),
        }
        return;
    }
    let mut setups = common::Setups::new(&argv);
    let mut report = match args.workload.as_str() {
        "detection_sweep" => detection::run(&args, &mut setups),
        "fault_campaign" => campaign::run(&args, &mut setups),
        _ => defense::run(&args, &mut setups),
    };
    report.failed = report.failed.min(report.attempted);
    let passed_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.e2e("passed_frac", passed_frac, "ratio");

    println!(
        "workload {} seed {} (pinned {}, held out {}); host timings have no hardware reference, so they carry no accuracy figure",
        args.workload,
        args.seed,
        pinned::PINNED_SEED,
        pinned::HELD_OUT_SEED
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "failed_frac = {} ({} of {} cells)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let layers = per_layer();
        for m in &report.layers {
            assert!(
                layers.iter().any(|(n, u)| *n == m.name && *u == m.unit),
                "per-layer metric {} ({}) is not declared",
                m.name,
                m.unit
            );
        }
        for (name, unit) in layers {
            let value = report
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metrics.push((name, value, unit));
        }
        let mut table: Vec<_> = common::self_times(&report.spans).into_iter().collect();
        table.sort_by_key(|(_, (_, total, _))| std::cmp::Reverse(*total));
        println!("self time per span (count, total ms, self ms):");
        for (name, (count, total, own)) in table {
            println!(
                "  {name:<40} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, common::spans_jsonl(&report.spans)))
        {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "spans: {} written to {}",
            report.spans.len(),
            path.display()
        );
    } else {
        for name in E2E {
            let m = report
                .e2e
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("end-to-end metric {name} missing"));
            metrics.push((m.name.clone(), m.value, m.unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let code = exit_code(&report);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        code == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload fault_campaign --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fault_campaign", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fault_campaign --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fault_campaign --seconds")).is_err());
        assert!(
            parse_args(&argv("--workload fault_campaign --seed 3 --setup-only"))
                .unwrap()
                .setup_only
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<String> = E2E
            .iter()
            .map(|n| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .chain(WORKLOADS.iter().map(|n| n.to_string()))
            .collect();
        for n in &names {
            assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
        }
        assert_eq!(text.matches("\"name\":").count(), names.len());
        assert!(names.len() - E2E.len() - WORKLOADS.len() <= 128);
    }

    #[test]
    fn failures_make_the_exit_code_nonzero() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        assert_eq!(exit_code(&r), 0);
        r.check("x", 1, String::new());
        assert_eq!(exit_code(&r), 1);
    }
}
