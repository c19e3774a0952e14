//! Regenerates every table and figure of the MichiCAN evaluation.
//!
//! ```text
//! experiments [all|table1|table2|table3|fig1a|fig1b|fig2|fig4b|fig6|
//!              detection|cpu|bus_load|multi_attacker|on_vehicle|
//!              ids_latency|feasibility|availability|faults|attacks|ids]
//!             [--full]
//!             [--artifacts <dir>]   # fig6 CSV + VCD output
//!             [--shards <n> | -j <n>]  # parallel workers (0 = all cores)
//!             [--metrics-out <path>]   # per-run observability export
//!             [--journal-out <path>]   # causal sim-time event journal export
//!             [--fast]                 # idle fast-forward simulation core
//!             [--packed]               # word-packed bus kernel
//!             [--attacks <name|all>]   # adversary-zoo selection (attacks)
//!             [--detectors <name|all>] # detector selection (ids bake-off)
//! ```
//!
//! An unknown artifact name or flag, or a value flag without its value,
//! is a usage error: a message on stderr and exit status 2. When stdout
//! is a closed pipe (`experiments detection | head -3`) the run ends
//! quietly with exit 0.
//!
//! `attacks` runs the adversary zoo (`bench::attackzoo`): every attack
//! variant of `can_attacks::registry` — bit-level stuff-bit overwrite,
//! mid-frame error flags, frame truncation, adaptive racing, ghost
//! injection, plus the controller-level spoofing/DoS/toggling attackers —
//! against MichiCAN, the Parrot baseline and an undefended victim, and
//! prints the per-attack eradication/bus-off/detection-latency table.
//! `--attacks <name>` restricts the grid to one attack family. The table
//! is byte-identical for every `--shards` count and simulation mode.
//!
//! `ids` runs the timing-IDS bake-off (`bench::idsbench`): every
//! detector variant of `can_ids::registry` attached as a passive tap to
//! every defense × scenario cell, printing per-detector detection
//! latency and false-positive rate next to MichiCAN's in-frame reaction
//! and eradication count. `--detectors <name>` restricts the grid to one
//! detector family. The table is byte-identical for every `--shards`
//! count and simulation mode.
//!
//! `--full` runs the paper-scale parameterizations (e.g. 160,000 random
//! FSMs); the default is a faster configuration with identical shape.
//!
//! `--fast` runs the simulator-backed grid artifacts (table2,
//! multi_attacker, faults) with the idle fast-forward core
//! (`SimMode::FastForward`). The output is byte-identical to the default
//! lockstep mode — CI diffs the two — it just skips quiescent bus
//! stretches in closed form (see `DESIGN.md §9`).
//!
//! `--packed` runs the same artifacts with the word-packed bus kernel
//! (`SimMode::Packed`): event-free stretches resolve the wired-AND up to
//! 64 bits at a time (see `DESIGN.md §11`). Output is again
//! byte-identical — CI diffs this mode too.
//!
//! `--shards` fans the grid artifacts (faults, detection, table2,
//! multi_attacker) out across worker threads; the output is byte-identical
//! for every shard count (see `bench::runner` for the determinism
//! contract).
//!
//! `--metrics-out <path>` enables the metrics recorder: the grid artifacts
//! run metered (per-cell registries merged in cell order), a serial
//! observability probe (`bench::obs`) runs once so the snapshot always
//! carries the per-node TEC/REC, error-type and reaction-latency series,
//! and the run's deterministic JSON snapshot is written to `<path>` with a
//! Prometheus text rendering next to it (`<path>` with the extension
//! replaced by `.prom`). The JSON snapshot is byte-identical for every
//! shard count; status messages go to stderr so stdout stays diffable.
//!
//! `--journal-out <path>` enables the causal event journal: the
//! simulator-backed artifacts (table2, multi_attacker, faults, attacks,
//! on_vehicle) emit sim-time events with stable `frame_seq`/`chain_id`
//! causal ids, and the canonical `can-obs-journal/v1` JSONL export is
//! written to `<path>` with a Chrome-trace (Perfetto) rendering next to it
//! (extension replaced by `trace.json` — open it in `ui.perfetto.dev`).
//! Like the metrics snapshot, the journal export is byte-identical for
//! every `--shards` count and simulation mode (see `DESIGN.md §13`).
//!
//! ## `experiments sweep` — the crash-tolerant campaign sweep
//!
//! ```text
//! experiments sweep --dir <path> [--workload campaign|synthetic]
//!                   [--replicas <n>] [--run-ms <f>] [--fast]     # campaign
//!                   [--cells <n>] [--cell-work <n>]              # synthetic
//!                   [--seed <n|0xHEX>] [--chunk <cells>] [--max-attempts <n>]
//!                   [--shards <n> | -j <n>] [--timeout-ms <n>] [--backoff-ms <n>]
//!                   [--max-rss-mb <n>]          # resumable fail-fast RSS guard
//!                   [--progress-out <path>] [--heartbeat-secs <n>]  # live telemetry
//!                   [--chaos-panic <n>] [--chaos-hang <n>] [--chaos-hang-ms <n>]
//!                   [--stop-after-chunks <n>]   # crash-simulation test hook
//! experiments sweep --resume <dir> [--shards|--timeout-ms|--backoff-ms|--max-rss-mb|--progress-out …]
//! ```
//!
//! Progress is checkpointed to `<dir>/journal.jsonl` after every chunk; a
//! killed (or RSS-guard-stopped) run continues with `--resume <dir>`,
//! which rebuilds the workload from the journal header. The final merged
//! `can-obs/v1` snapshot lands in `<dir>/snapshot.json` and is
//! byte-identical for every shard count and across any kill/resume point
//! (see `DESIGN.md §10`). The report on stdout is deterministic; progress
//! and paths go to stderr.
//!
//! `--progress-out <path>` turns on the live heartbeat: after each durably
//! journaled chunk (rate-limited to one beat per `--heartbeat-secs`,
//! default every chunk) a `michican-sweep-progress/v1` JSONL record is
//! appended to `<path>` and an atomically-swapped Prometheus textfile
//! lands next to it (extension replaced by `.prom`) for a node-exporter
//! textfile collector to scrape mid-run. Heartbeat flags are run-local
//! "how fast" knobs like `--shards`: they may differ freely between the
//! original run and a `--resume`, and they never affect the snapshot.

use std::env;
use std::path::PathBuf;

use bench::runner::{parse_shards, ExecOpts};
use bench::scenarios::{self, table2_experiments, TABLE2_SPEED};
use bench::{busload, cpu, detection, table1};
use can_core::bitstream::{FrameField, FrameLayout};
use can_core::counters::ERRORS_TO_BUS_OFF;
use can_core::{BusSpeed, CanFrame, CanId, ErrorCounters, ErrorState};
use can_obs::{Journal, Recorder};
use can_sim::{ErrorRole, EventKind};
use can_trace::{Timeline, TimelineEvent};
use mcu::{ARDUINO_DUE, NXP_S32K144};
use michican::prevention;
use michican::Scenario;

/// Artifact names the runner accepts (`all` runs every one of them).
const ARTIFACTS: &[&str] = &[
    "all",
    "table1",
    "fig1a",
    "fig1b",
    "fig2",
    "fig4b",
    "detection",
    "table2",
    "table3",
    "fig6",
    "multi_attacker",
    "cpu",
    "bus_load",
    "on_vehicle",
    "ids_latency",
    "feasibility",
    "availability",
    "faults",
    "attacks",
    "ids",
];

/// Flags of the artifact runner that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--shards",
    "-j",
    "--artifacts",
    "--metrics-out",
    "--journal-out",
    "--attacks",
    "--detectors",
];

/// Flags of the artifact runner that take no value.
const SWITCHES: &[&str] = &["--full", "--fast", "--packed"];

/// Flags of `experiments sweep` that take a value.
const SWEEP_VALUE_FLAGS: &[&str] = &[
    "--shards",
    "-j",
    "--dir",
    "--resume",
    "--workload",
    "--replicas",
    "--run-ms",
    "--cells",
    "--cell-work",
    "--seed",
    "--chunk",
    "--max-attempts",
    "--timeout-ms",
    "--backoff-ms",
    "--max-rss-mb",
    "--progress-out",
    "--heartbeat-secs",
    "--chaos-panic",
    "--chaos-hang",
    "--chaos-hang-ms",
    "--stop-after-chunks",
];

/// Flags of `experiments sweep` that take no value.
const SWEEP_SWITCHES: &[&str] = &["--fast"];

/// The positional arguments of `args`, or an error naming the first
/// unknown flag or the first value flag given without its value.
fn positionals<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut names = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if value_flags.contains(&arg.as_str()) {
            iter.next().ok_or(format!("{arg} needs a value"))?;
        } else if arg.starts_with('-') && !switches.contains(&arg.as_str()) {
            return Err(format!("unknown flag {arg}"));
        } else if !arg.starts_with('-') {
            names.push(arg.as_str());
        }
    }
    Ok(names)
}

/// Reports a command-line error and exits with the usage status 2.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// This binary's `print!`: the report goes to stdout through [`emit`].
macro_rules! print {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// This binary's `println!`: the report goes to stdout through [`emit`].
macro_rules! println {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes report text to stdout. Once stdout is a closed pipe
/// (`experiments detection | head -3`) the run ends quietly with exit 0;
/// any other write error exits 1.
fn emit(text: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("sweep") {
        match positionals(&args[1..], SWEEP_VALUE_FLAGS, SWEEP_SWITCHES) {
            Ok(names) if names.is_empty() => {}
            Ok(names) => usage_error(format!("unexpected argument {}", names[0])),
            Err(message) => usage_error(message),
        }
        match sweep_command(&args[1..]) {
            Ok(()) => return,
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
    }
    let names = positionals(&args, VALUE_FLAGS, SWITCHES).unwrap_or_else(|e| usage_error(e));
    let which = match names[..] {
        [] => "all",
        [name] if ARTIFACTS.contains(&name) => name,
        [name] => usage_error(format!(
            "unknown artifact {name} (one of: {})",
            ARTIFACTS.join(" ")
        )),
        [_, extra, ..] => usage_error(format!("unexpected argument {extra}: one artifact per run")),
    };
    let (shards, args) = parse_shards(&args).unwrap_or_else(|e| usage_error(e));
    let full = args.iter().any(|a| a == "--full");
    let mode = if args.iter().any(|a| a == "--packed") {
        bench::runner::SimMode::Packed
    } else if args.iter().any(|a| a == "--fast") {
        bench::runner::SimMode::FastForward
    } else {
        bench::runner::SimMode::Lockstep
    };
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let artifacts: Option<PathBuf> = value("--artifacts").map(PathBuf::from);
    let metrics_out: Option<PathBuf> = value("--metrics-out").map(PathBuf::from);
    let journal_out: Option<PathBuf> = value("--journal-out").map(PathBuf::from);
    let attack_selection = value("--attacks").map_or("all", String::as_str);
    let detector_selection = value("--detectors").map_or("all", String::as_str);

    // One root recorder for the whole invocation: disabled (all no-ops)
    // unless --metrics-out asked for the export.
    let recorder = if metrics_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // Likewise one root journal, enabled only when --journal-out asked for
    // the causal export.
    let journal = if journal_out.is_some() {
        Journal::enabled()
    } else {
        Journal::disabled()
    };

    let run = |name: &str| which == "all" || which == name;

    if run("table1") {
        section("Table I — countermeasure comparison");
        print!("{}", table1::render_table1());
    }
    if run("fig1a") {
        section("Fig. 1a — CAN 2.0A data frame layout");
        fig1a();
    }
    if run("fig1b") {
        section("Fig. 1b — error-state transitions");
        fig1b();
    }
    if run("fig2") {
        section("Fig. 2 — DoS attack taxonomy");
        fig2();
    }
    if run("fig4b") {
        section("Fig. 4b — worst-case counterattack pattern");
        fig4b();
    }
    if run("detection") {
        section("§V-B — detection latency (random FSMs)");
        detection_latency(full, shards, &recorder);
    }
    if run("table2") {
        section("Table II — empirical bus-off time (six experiments, 50 kbit/s)");
        table2(full, shards, mode, &recorder, &journal);
    }
    if run("table3") {
        section("Table III — theoretical bus-off time");
        table3();
    }
    if run("fig6") {
        section("Fig. 6 — Experiment 5 bus pattern (0x066 vs 0x067)");
        fig6(artifacts.as_deref());
    }
    if run("multi_attacker") {
        section("§V-C — more than two attackers");
        multi_attacker(shards, mode, &recorder, &journal);
    }
    if run("cpu") {
        section("§V-D — CPU utilization");
        cpu_utilization();
    }
    if run("bus_load") {
        section("§V-E — bus load: MichiCAN vs Parrot");
        bus_load();
    }
    if run("on_vehicle") {
        section("§V-F — on-vehicle ParkSense test (2017 Pacifica)");
        on_vehicle(&journal);
    }
    if run("ids_latency") {
        section("Extension — quantifying Table I's IDS row");
        ids_latency();
    }
    if run("feasibility") {
        section("Extension — analytic deadline feasibility (response-time analysis)");
        feasibility();
    }
    if run("availability") {
        section("Extension — benign-traffic availability under persistent attack");
        availability();
    }
    if run("faults") {
        section("Extension — fault-injection campaign (robustness grid)");
        faults(full, shards, mode, &recorder, &journal);
    }
    if run("attacks") {
        section("Extension — adversary zoo (bit-level + controller-level registry)");
        attacks(full, shards, mode, &recorder, &journal, attack_selection);
    }
    if run("ids") {
        section("Extension — timing-IDS bake-off (detector × defense × scenario)");
        ids(full, shards, mode, &recorder, &journal, detector_selection);
    }

    if let Some(path) = metrics_out {
        write_metrics(&recorder, &path);
    }
    if let Some(path) = journal_out {
        write_journal(&journal, &path);
    }
}

/// The `experiments sweep` subcommand: a crash-tolerant, resumable
/// campaign sweep (see `bench::sweep` and `DESIGN.md §10`).
fn sweep_command(raw: &[String]) -> Result<(), String> {
    use bench::sweep::{
        self, CampaignSweep, ChaosSpec, Chaotic, HeartbeatConfig, SweepConfig, SweepError,
        SweepWorkload, SyntheticSweep,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let (shards, args) = parse_shards(raw)?;
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    fn num<T: std::str::FromStr>(
        value: Option<&String>,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match value {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("invalid value for {name}: {s}")),
        }
    }

    let timeout_ms: u64 = num(value("--timeout-ms"), "--timeout-ms", 0)?;
    let heartbeat_secs: u64 = num(value("--heartbeat-secs"), "--heartbeat-secs", 0)?;
    let heartbeat = match value("--progress-out").map(PathBuf::from) {
        Some(progress) => Some(HeartbeatConfig {
            prom_out: Some(progress.with_extension("prom")),
            progress_out: Some(progress),
            min_interval_secs: heartbeat_secs,
        }),
        None if heartbeat_secs > 0 => {
            return Err("--heartbeat-secs needs --progress-out <path>".to_string())
        }
        None => None,
    };
    let base_config = SweepConfig {
        shards,
        cell_timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        retry_backoff: Duration::from_millis(num(value("--backoff-ms"), "--backoff-ms", 10)?),
        max_rss_mb: value("--max-rss-mb")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid value for --max-rss-mb: {s}"))
            })
            .transpose()?,
        stop_after_chunks: value("--stop-after-chunks")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("invalid value for --stop-after-chunks: {s}"))
            })
            .transpose()?,
        heartbeat,
        ..SweepConfig::default()
    };

    let (workload, config, dir) = if let Some(dir) = value("--resume").map(PathBuf::from) {
        let params = sweep::resume_params(&dir).map_err(|e| e.to_string())?;
        let workload = sweep::workload_from_descriptor(&params.workload)?;
        eprintln!(
            "resuming sweep in {} (workload {})",
            dir.display(),
            params.workload
        );
        let config = SweepConfig {
            seed: params.seed,
            chunk_cells: params.chunk_cells,
            max_attempts: params.max_attempts,
            ..base_config
        };
        (workload, config, dir)
    } else {
        let dir: PathBuf = value("--dir")
            .map(PathBuf::from)
            .ok_or("sweep needs --dir <path> (or --resume <dir>)")?;
        if dir.join(sweep::JOURNAL_FILE).exists() {
            return Err(format!(
                "{} already holds a sweep journal — continue it with \
                 `experiments sweep --resume {}`, or pick a fresh --dir",
                dir.display(),
                dir.display()
            ));
        }
        let seed = match value("--seed") {
            None => SweepConfig::default().seed,
            Some(s) => {
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                parsed.map_err(|_| format!("invalid value for --seed: {s}"))?
            }
        };
        let kind = value("--workload")
            .map(String::as_str)
            .unwrap_or("campaign");
        let inner: Arc<dyn SweepWorkload> = match kind {
            "campaign" => {
                let mode = if args.iter().any(|a| a == "--fast") {
                    bench::runner::SimMode::FastForward
                } else {
                    bench::runner::SimMode::Lockstep
                };
                Arc::new(CampaignSweep::new(
                    num(value("--replicas"), "--replicas", 4)?,
                    num(value("--run-ms"), "--run-ms", 150.0)?,
                    mode,
                ))
            }
            "synthetic" => Arc::new(SyntheticSweep {
                cells: num(value("--cells"), "--cells", 10_000)?,
                work: num(value("--cell-work"), "--cell-work", 1_000)?,
            }),
            other => return Err(format!("unknown --workload {other} (campaign|synthetic)")),
        };
        let chaos = ChaosSpec {
            panic_every: num(value("--chaos-panic"), "--chaos-panic", 0)?,
            panic_transient: false,
            hang_every: num(value("--chaos-hang"), "--chaos-hang", 0)?,
            hang_transient: true,
            hang_ms: num(value("--chaos-hang-ms"), "--chaos-hang-ms", 60_000)?,
        };
        let workload: Arc<dyn SweepWorkload> = if chaos.is_inert() {
            inner
        } else {
            Arc::new(Chaotic { inner, chaos })
        };
        let config = SweepConfig {
            seed,
            chunk_cells: num(value("--chunk"), "--chunk", 16)?,
            max_attempts: num(value("--max-attempts"), "--max-attempts", 3)?,
            ..base_config
        };
        (workload, config, dir)
    };

    match sweep::run_sweep(workload, &config, &dir) {
        Ok(report) => {
            print!("{}", report.render());
            eprintln!("snapshot: {}", report.snapshot_path.display());
            Ok(())
        }
        Err(e @ SweepError::MemoryLimit { .. }) => Err(e.to_string()),
        Err(e @ SweepError::Aborted { .. }) => Err(format!(
            "{e} (the journal in {} is resumable)",
            dir.display()
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// The base execution options for a grid artifact: metered by the root
/// recorder, journaled by the root journal, in the simulation mode
/// `--fast`/`--packed` asked for.
fn exec_opts(mode: bench::runner::SimMode, recorder: &Recorder, journal: &Journal) -> ExecOpts {
    ExecOpts::new()
        .with_recorder(recorder.clone())
        .with_journal(journal.clone())
        .with_mode(mode)
}

/// Runs the serial observability probe and writes the run's metrics: the
/// deterministic JSON snapshot to `path` and the Prometheus text rendering
/// (which additionally carries the host-dependent wall-time spans) next to
/// it with a `.prom` extension.
fn write_metrics(recorder: &Recorder, path: &std::path::Path) {
    bench::obs::run_reaction_probe(recorder, 50.0);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            std::process::exit(1);
        }
    }
    if let Err(e) = std::fs::write(path, recorder.snapshot_json()) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let prom = path.with_extension("prom");
    if let Err(e) = std::fs::write(&prom, recorder.prometheus_text()) {
        eprintln!("cannot write {}: {e}", prom.display());
        std::process::exit(1);
    }
    eprintln!("metrics: wrote {} and {}", path.display(), prom.display());
}

/// Writes the run's causal event journal: the canonical
/// `can-obs-journal/v1` JSONL export to `path`, and the Chrome-trace
/// (Perfetto) rendering next to it with a `trace.json` extension.
fn write_journal(journal: &Journal, path: &std::path::Path) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            std::process::exit(1);
        }
    }
    let export = journal.export_jsonl();
    if let Err(e) = std::fs::write(path, &export) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    let trace = path.with_extension("trace.json");
    match can_trace::chrome_trace_json(&export) {
        Ok(doc) => {
            if let Err(e) = std::fs::write(&trace, doc) {
                eprintln!("cannot write {}: {e}", trace.display());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("cannot render chrome trace: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("journal: wrote {} and {}", path.display(), trace.display());
}

fn faults(
    full: bool,
    shards: usize,
    mode: bench::runner::SimMode,
    recorder: &Recorder,
    journal: &Journal,
) {
    use bench::campaign::{run_campaign_with, CampaignConfig};
    let config = CampaignConfig {
        run_ms: if full { 600.0 } else { 150.0 },
        shards,
        ..CampaignConfig::default()
    };
    let opts = exec_opts(mode, recorder, journal);
    print!("{}", run_campaign_with(&config, &opts).render());
    println!("(seeded and deterministic: rerunning reproduces this table byte for byte)");
}

fn attacks(
    full: bool,
    shards: usize,
    mode: bench::runner::SimMode,
    recorder: &Recorder,
    journal: &Journal,
    selection: &str,
) {
    use bench::attackzoo::{self, ZooDefense, ZOO_HORIZON_BITS};
    let cells = match attackzoo::zoo_cells_for(selection) {
        Some(cells) => cells,
        None => {
            eprintln!(
                "error: unknown attack '{selection}' (known: all, {})",
                can_attacks::registry::attack_names().join(", ")
            );
            std::process::exit(2);
        }
    };
    let horizon = if full { 100_000 } else { ZOO_HORIZON_BITS };
    println!(
        "registry: {} variants x {} defenses = {} cells, {} bits each at {}",
        cells.len() / ZooDefense::ALL.len(),
        ZooDefense::ALL.len(),
        cells.len(),
        horizon,
        TABLE2_SPEED
    );
    let outcomes = attackzoo::run_zoo_with(
        cells,
        horizon,
        &exec_opts(mode, recorder, journal).with_shards(shards),
    );
    print!("{}", attackzoo::render_zoo_table(&outcomes));
    if selection == "all" {
        attackzoo::assert_zoo_coverage(&outcomes);
        println!(
            "\n(bit-level attackers have no error counters: no counterattack can bus them off —"
        );
        println!("the paper's integrated-controller isolation argument, quantified per attack)");
    }
}

fn ids(
    full: bool,
    shards: usize,
    mode: bench::runner::SimMode,
    recorder: &Recorder,
    journal: &Journal,
    selection: &str,
) {
    use bench::attackzoo::ZooDefense;
    use bench::idsbench::{self, IDS_HORIZON_BITS};
    let detectors = match idsbench::detector_grid_for(selection) {
        Some(detectors) => detectors,
        None => {
            eprintln!(
                "error: unknown detector '{selection}' (known: all, {})",
                can_ids::registry::detector_names().join(", ")
            );
            std::process::exit(2);
        }
    };
    let cells = idsbench::ids_cells();
    let horizon = if full { 100_000 } else { IDS_HORIZON_BITS };
    println!(
        "grid: {} scenarios x {} defenses = {} cells, {} detectors each, {} bits at {}",
        cells.len() / ZooDefense::ALL.len(),
        ZooDefense::ALL.len(),
        cells.len(),
        detectors.len(),
        horizon,
        TABLE2_SPEED
    );
    let outcomes = idsbench::run_ids_with(
        cells,
        detectors,
        horizon,
        &exec_opts(mode, recorder, journal).with_shards(shards),
    );
    print!("{}", idsbench::render_ids_table(&outcomes));
    idsbench::assert_ids_honesty(&outcomes);
    println!(
        "\n(honesty invariant held: every frame-level detection took at least one whole frame;"
    );
    println!("MichiCAN's in-frame reaction, where it fired, came in under one frame)");
}

fn availability() {
    use bench::availability::{run as run_avail, Defense};
    let ms = 400.0;
    let healthy = run_avail(Defense::Healthy, ms);
    let undefended = run_avail(Defense::Undefended, ms);
    let defended = run_avail(Defense::MichiCan, ms);
    let parrot = run_avail(Defense::Parrot, ms);
    println!("Veh. D restbus at 500 kbit/s, {ms} ms, saturating DoS on 0x041\n");
    println!(
        "{:<14} {:>14} {:>14} {:>13} {:>10}",
        "scenario", "benign frames", "attack frames", "eradications", "bus load"
    );
    for (label, a) in [
        ("healthy", healthy),
        ("undefended", undefended),
        ("MichiCAN", defended),
        ("Parrot", parrot),
    ] {
        println!(
            "{:<14} {:>14} {:>14} {:>13} {:>9.1}%",
            label,
            a.benign_delivered,
            a.attack_delivered,
            a.eradications,
            a.bus_load * 100.0
        );
    }
    println!(
        "\nbenign delivery restored: {:.0} % of healthy (undefended: {:.1} %)",
        defended.benign_delivered as f64 / healthy.benign_delivered as f64 * 100.0,
        undefended.benign_delivered as f64 / healthy.benign_delivered as f64 * 100.0
    );
}

fn feasibility() {
    use restbus::schedulability::{analyze, max_tolerable_blocking};
    use restbus::{vehicle_matrix, Vehicle};
    let matrix = vehicle_matrix(Vehicle::D, 0, BusSpeed::K500);
    println!(
        "matrix: {} ({} messages, min deadline {} ms)",
        matrix.name,
        matrix.len(),
        matrix.min_deadline_ms().unwrap_or(0)
    );
    println!(
        "{:<36} {:>12} {:>14}",
        "defense-episode blocking", "bits", "all deadlines?"
    );
    for (label, blocking) in [
        ("healthy bus", 0u64),
        ("A=1 episode (measured)", 1_293),
        ("A=2 episode (measured)", 2_389),
        ("A=3 episode (measured)", 3_581),
        ("A=4 episode (measured)", 4_693),
        ("A=5 episode (measured)", 6_106),
    ] {
        let result = analyze(&matrix, blocking);
        println!(
            "{:<36} {:>12} {:>14}",
            label,
            blocking,
            if result.all_schedulable() {
                "yes"
            } else {
                "NO"
            }
        );
    }
    let budget = max_tolerable_blocking(&matrix);
    println!(
        "\nexact tolerable blocking budget: {} bits ({:.2} ms at 500 kbit/s)",
        budget,
        budget as f64 * 0.002
    );
    println!("(paper's crude bound: 5000 bits; the exact analysis accounts for interference)");
}

fn ids_latency() {
    use bench::idsbench::{flood_ids_defense, flood_michican_defense};
    let ids = flood_ids_defense(40_000);
    let michican = flood_michican_defense(40_000);
    println!("{:<34} {:>14} {:>14}", "metric", "frame IDS", "MichiCAN");
    println!(
        "{:<34} {:>14} {:>14}",
        "detection latency (bits)",
        ids.detection_latency_bits
            .map(|b| b.to_string())
            .unwrap_or_else(|| "never".into()),
        michican
            .detection_latency_bits
            .map(|b| b.to_string())
            .unwrap_or_else(|| "never".into()),
    );
    println!(
        "{:<34} {:>14} {:>14}",
        "attack frames before detection",
        ids.frames_before_detection,
        michican.frames_before_detection
    );
    println!(
        "{:<34} {:>14} {:>14}",
        "attack frames delivered (total)",
        ids.total_attack_frames_delivered,
        michican.total_attack_frames_delivered
    );
    println!(
        "{:<34} {:>14} {:>14}",
        "attacker eradicated", ids.eradicated, michican.eradicated
    );
    println!("\n(the measured form of Table I: IDS = detection without real-time or eradication)");
}

fn section(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig1a() {
    let layout = FrameLayout::for_payload(8);
    println!("{:<16} {:>8} {:>8} {:>8}", "Field", "start", "end", "bits");
    for field in FrameField::ALL {
        let span = layout.span(field);
        println!(
            "{:<16} {:>8} {:>8} {:>8}",
            field.name(),
            span.start,
            span.end,
            span.len()
        );
    }
    println!("(unstuffed bit offsets, 8-byte payload; stuffing applies SOF..CRC)");
}

fn fig1b() {
    let mut counters = ErrorCounters::new();
    println!("transmit-error ladder (TEC +8 per error, thresholds 128/256):");
    let mut last_state = ErrorState::ErrorActive;
    for error in 1..=ERRORS_TO_BUS_OFF {
        let state = counters.on_transmit_error();
        if state != last_state {
            println!(
                "  after error {:>2} (TEC {:>3}): {} -> {}",
                error,
                counters.tec(),
                last_state,
                state
            );
            last_state = state;
        }
    }
    println!("  recovery: 128 sequences of 11 recessive bits -> error-active (TEC/REC reset)");
}

fn fig2() {
    use can_attacks::{DosKind, SuspensionAttacker};
    use can_core::app::Application;
    use can_core::BitInstant;
    let kinds: [(&str, DosKind); 3] = [
        ("traditional", DosKind::Traditional),
        (
            "targeted",
            DosKind::Targeted {
                id: CanId::from_raw(0x25F),
            },
        ),
        (
            "random",
            DosKind::Random {
                below: CanId::from_raw(0x100),
            },
        ),
    ];
    for (name, kind) in kinds {
        let mut attacker = SuspensionAttacker::new(kind, 1);
        let ids: Vec<String> = (0..8)
            .filter_map(|t| attacker.poll(BitInstant::from_bits(t)))
            .map(|f| format!("{}", f.id()))
            .collect();
        println!("{name:>12}: {}", ids.join(" "));
    }
}

fn fig4b() {
    println!("attacker frame (worst case: recessive ID LSB, DLC=1):");
    let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[0x00]).unwrap();
    let needed = prevention::injection_bits_to_error(&frame);
    println!("  injected dominant bits until stuff error: {needed}");
    println!(
        "  error frame starts at frame bit {} -> t_a = {} bits, t_p = {} bits",
        prevention::WORST_CASE_FLAG_START,
        prevention::error_active_time(prevention::WORST_CASE_FLAG_START),
        prevention::error_passive_time(prevention::WORST_CASE_FLAG_START)
    );
    println!("per-identifier injected-bit requirement (sampled):");
    for raw in [0x000u16, 0x050, 0x064, 0x066, 0x173, 0x25F, 0x7D0] {
        for dlc in [1usize, 8] {
            let f = CanFrame::data_frame(CanId::from_raw(raw), &vec![0u8; dlc]).unwrap();
            println!(
                "  id {:>5}  dlc {}  -> {} bits",
                format!("{}", f.id()),
                dlc,
                prevention::injection_bits_to_error(&f)
            );
        }
    }
}

fn detection_latency(full: bool, shards: usize, recorder: &Recorder) {
    let fsms = if full { 160_000 } else { 4_000 };
    println!(
        "sweep: {} random FSMs (IVN sizes 150-450; use --full for 160k)",
        fsms
    );
    let sweep = detection::run_sweep_with(
        fsms,
        0xD5_2025,
        &ExecOpts::new()
            .with_shards(shards)
            .with_recorder(recorder.clone()),
    );
    println!(
        "  detection rate:          {:.1} %   (paper: 100 %)",
        sweep.detection_rate * 100.0
    );
    println!(
        "  false positives:         {:.3} %  (paper: 0 %)",
        sweep.false_positive_rate * 100.0
    );
    println!(
        "  mean detection position: {:.2} bits (paper: 9)",
        sweep.mean_detection_position
    );
    println!("  mean FSM states:         {:.0}", sweep.mean_nodes);
    println!("position vs IVN size (figure-style series):");
    for n in [10usize, 20, 50, 100, 200, 300, 400] {
        let s = detection::run_sweep_with_sizes_sharded(
            if full { 2_000 } else { 200 },
            0xD5,
            n,
            n,
            shards,
        );
        println!(
            "  N = {n:>3}: mean position {:.2}",
            s.mean_detection_position
        );
    }
}

fn table2(
    full: bool,
    shards: usize,
    mode: bench::runner::SimMode,
    recorder: &Recorder,
    journal: &Journal,
) {
    let capture_ms = if full { 10_000.0 } else { 2_000.0 };
    println!("capture: {capture_ms} ms per experiment (paper: 2 s)");
    println!(
        "{:<5} {:<10} {:<9} {:>10} {:>12} {:>10} {:>9}",
        "Exp.", "Attacker", "Restbus", "mu (ms)", "sigma (ms)", "max (ms)", "episodes"
    );
    let paper: &[(f64, f64, f64)] = &[
        (24.6, 2.64, 58.6),
        (24.2, 0.27, 25.2),
        (25.1, 1.39, 38.3),
        (24.9, 0.45, 25.2),
        (39.0, 0.79, 48.6),
        (35.4, 0.60, 44.0),
        (24.9, 0.01, 25.4),
        (24.9, 0.01, 25.4),
    ];
    let mut row = 0usize;
    let opts = exec_opts(mode, recorder, journal).with_shards(shards);
    for outcome in scenarios::run_table2_with(capture_ms, &opts) {
        let exp = &outcome.experiment;
        for (id, stats) in &outcome.per_attacker {
            match stats {
                Some(s) => println!(
                    "{:<5} 0x{:03X}     {:<9} {:>10.1} {:>12.2} {:>10.1} {:>9}   (paper: mu={} sd={} max={})",
                    exp.number,
                    id,
                    if exp.restbus { "yes" } else { "no" },
                    s.mean_millis(TABLE2_SPEED),
                    s.std_millis(TABLE2_SPEED),
                    s.max_millis(TABLE2_SPEED),
                    s.count,
                    paper[row].0,
                    paper[row].1,
                    paper[row].2,
                ),
                None => println!(
                    "{:<5} 0x{id:03X}  -- no bus-off within capture --",
                    exp.number
                ),
            }
            row += 1;
        }
    }
}

fn table3() {
    println!("clean runs (no interference):");
    println!(
        "{:<8} {:<6} {:>14} {:>15} {:>16}",
        "Exp.", "Scen.", "t_a (bits)", "t_p (bits)", "total (bits)"
    );
    for row in prevention::theory_table(prevention::AVERAGE_FRAME_BITS, 0, 0, 0, 0, 0) {
        println!(
            "{:<8} {:<6} {:>14} {:>15} {:>16}",
            row.experiments, row.scenario, row.active_bits, row.passive_bits, row.total_bits
        );
    }
    println!("\nwith one interfering frame per gap (c_h,a = c_h,p+c_l,p = z_* = 1, s_f = 125):");
    println!(
        "{:<8} {:<6} {:>14} {:>15} {:>16}",
        "Exp.", "Scen.", "t_a (bits)", "t_p (bits)", "total (bits)"
    );
    for row in prevention::theory_table(prevention::AVERAGE_FRAME_BITS, 1, 1, 1, 1, 1) {
        println!(
            "{:<8} {:<6} {:>14} {:>15} {:>16}",
            row.experiments, row.scenario, row.active_bits, row.passive_bits, row.total_bits
        );
    }
    println!(
        "\nworst-case single attacker: {} bits = {:.2} ms at 50 kbit/s (paper: 1248)",
        prevention::single_attacker_total(prevention::WORST_CASE_FLAG_START),
        (prevention::single_attacker_total(prevention::WORST_CASE_FLAG_START) as f64) * 0.02
    );
    println!(
        "best-case single attacker:  {} bits",
        prevention::single_attacker_total(prevention::BEST_CASE_FLAG_START)
    );
}

fn fig6(artifacts: Option<&std::path::Path>) {
    // Re-run Experiment 5 with event capture and render the timeline.
    let exp = table2_experiments()
        .into_iter()
        .find(|e| e.number == 5)
        .unwrap();
    let (mut sim, attackers) = scenarios::build_experiment_traced(&exp);
    // Run until both attackers are bused off once.
    let mut off = std::collections::HashSet::new();
    let mut checked = 0usize;
    for _ in 0..20_000u64 {
        sim.step();
        while checked < sim.events().len() {
            if matches!(sim.events()[checked].kind, EventKind::BusOff) {
                off.insert(sim.events()[checked].node);
            }
            checked += 1;
        }
        if attackers.iter().all(|a| off.contains(a)) {
            break;
        }
    }
    let events: Vec<TimelineEvent> = sim
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TransmissionStarted { .. } => Some(TimelineEvent::TransmissionStarted {
                node: e.node,
                at: e.at,
            }),
            EventKind::TransmissionSucceeded { .. } => Some(TimelineEvent::TransmissionSucceeded {
                node: e.node,
                at: e.at,
            }),
            EventKind::ErrorDetected {
                role: ErrorRole::Transmitter,
                ..
            } => Some(TimelineEvent::TransmitError {
                node: e.node,
                at: e.at,
            }),
            EventKind::BusOff => Some(TimelineEvent::BusOff {
                node: e.node,
                at: e.at,
            }),
            EventKind::Recovered => Some(TimelineEvent::Recovered {
                node: e.node,
                at: e.at,
            }),
            _ => None,
        })
        .collect();
    let horizon = sim.now().bits();
    let timeline = Timeline::build(&events, &attackers, horizon);
    print!(
        "{}",
        timeline.render_ascii(&[(attackers[0], "0x066"), (attackers[1], "0x067")], 100)
    );

    if let Some(dir) = artifacts {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
        } else {
            let csv_path = dir.join("fig6_spans.csv");
            let _ = std::fs::write(&csv_path, timeline.to_csv());
            if let Some(trace) = sim.trace() {
                let vcd_path = dir.join("fig6_bus.vcd");
                let signal = can_trace::VcdSignal::new("CAN_RX", trace.levels().to_vec());
                let _ = std::fs::write(&vcd_path, can_trace::write_vcd(TABLE2_SPEED, &[signal]));
                println!(
                    "artifacts: {} and {} written",
                    csv_path.display(),
                    vcd_path.display()
                );
            }
        }
    }

    // The paper's intertwining summary.
    let errors = |node: usize| {
        sim.events()
            .iter()
            .filter(|e| {
                e.node == node
                    && matches!(
                        e.kind,
                        EventKind::ErrorDetected {
                            role: ErrorRole::Transmitter,
                            ..
                        }
                    )
            })
            .count()
    };
    println!(
        "0x066: {} destroyed attempts; 0x067: {} destroyed attempts (32 each expected)",
        errors(attackers[0]),
        errors(attackers[1])
    );
}

fn multi_attacker(
    shards: usize,
    mode: bench::runner::SimMode,
    recorder: &Recorder,
    journal: &Journal,
) {
    println!(
        "{:>3} {:>14} {:>12}   {:<30}",
        "A", "total (bits)", "total (ms)", "verdict vs 5000-bit deadline"
    );
    let paper: [(usize, Option<u64>); 5] = [
        (1, Some(1248)),
        (2, None),
        (3, Some(3515)),
        (4, Some(4660)),
        (5, None),
    ];
    let counts: Vec<usize> = paper.iter().map(|&(count, _)| count).collect();
    let scan = scenarios::run_multi_attacker_scan_with(
        &counts,
        60_000,
        &exec_opts(mode, recorder, journal).with_shards(shards),
    );
    for ((count, result), (_, paper_bits)) in scan.into_iter().zip(paper) {
        match result {
            Some(bits) => {
                let verdict = if bits <= 5_000 {
                    "operable"
                } else {
                    "BUS INOPERABLE"
                };
                let reference = paper_bits
                    .map(|b| format!(" (paper: {b})"))
                    .unwrap_or_default();
                println!(
                    "{count:>3} {bits:>14} {:>12.1}   {verdict:<16}{reference}",
                    bits as f64 * TABLE2_SPEED.bit_time_us() / 1000.0
                );
            }
            None => println!("{count:>3}  -- not all attackers eradicated within horizon --"),
        }
    }
}

fn cpu_utilization() {
    let rows = cpu::cpu_report(
        &[&ARDUINO_DUE, &NXP_S32K144],
        &[BusSpeed::K125, BusSpeed::K250, BusSpeed::K500],
        &[Scenario::Full, Scenario::Light],
    );
    println!(
        "{:<30} {:<12} {:<7} {:>9} {:>9} {:>9}",
        "MCU", "speed", "scen.", "idle", "active", "combined"
    );
    for (mcu_name, speed, scenario) in [
        (ARDUINO_DUE.name, BusSpeed::K125, Scenario::Full),
        (ARDUINO_DUE.name, BusSpeed::K125, Scenario::Light),
        (ARDUINO_DUE.name, BusSpeed::K250, Scenario::Full),
        (NXP_S32K144.name, BusSpeed::K500, Scenario::Full),
        (NXP_S32K144.name, BusSpeed::K500, Scenario::Light),
    ] {
        let sel: Vec<&cpu::CpuRow> = rows
            .iter()
            .filter(|r| r.mcu == mcu_name && r.speed == speed && r.scenario == scenario)
            .collect();
        let mean =
            |f: fn(&cpu::CpuRow) -> f64| sel.iter().map(|r| f(r)).sum::<f64>() / sel.len() as f64;
        println!(
            "{:<30} {:<12} {:<7} {:>8.1}% {:>8.1}% {:>8.1}%",
            mcu_name,
            speed.to_string(),
            format!("{scenario:?}"),
            mean(|r| r.idle_load) * 100.0,
            mean(|r| r.active_load) * 100.0,
            mean(|r| r.combined_load) * 100.0
        );
    }
    println!("(averages over the 8 vehicle buses; paper: Due@125k full=40%, light=30%, Due@250k=80%, S32K144@500k=44%)");
}

fn bus_load() {
    let michican = busload::michican_load(400.0);
    let parrot = busload::parrot_load(600.0);
    println!("{:<26} {:>12} {:>12}", "metric", "MichiCAN", "Parrot");
    println!(
        "{:<26} {:>12.1} {:>12.1}",
        "load during defense (%)",
        michican.during_defense * 100.0,
        parrot.during_defense * 100.0
    );
    println!(
        "{:<26} {:>12.1} {:>12.1}",
        "overall load (%)",
        michican.overall * 100.0,
        parrot.overall * 100.0
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "attacker bused off", michican.attacker_bused_off, parrot.attacker_bused_off
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "defender TEC after run", michican.defender_tec, parrot.defender_tec
    );
    println!(
        "\nParrot theoretical flood load: {:.1} % (paper: 125/128 = 97.7 %)",
        busload::parrot_theoretical_flood_load() * 100.0
    );
    if let Some(bits) = michican.busoff_bits {
        println!(
            "MichiCAN counterattack spike: {} bits = {:.1} ms at 50 kbit/s, then the bus is clean",
            bits,
            bits as f64 * 0.02
        );
    }
}

fn on_vehicle(journal: &Journal) {
    let opts = ExecOpts::new().with_journal(journal.clone());
    let undefended = scenarios::run_parksense_with(false, 600.0, &opts);
    let defended = scenarios::run_parksense_with(true, 600.0, &opts);
    println!("targeted DoS on ParkSense: inject 0x25F against lowest relevant id 0x260\n");
    println!("without MichiCAN dongle:");
    println!(
        "  PARKSENSE UNAVAILABLE: {} (at {:?} ms)  status frames: {}",
        undefended.became_unavailable,
        undefended.unavailable_at_ms,
        undefended.status_frames_received
    );
    println!("with MichiCAN dongle on the OBD-II splitter:");
    println!(
        "  PARKSENSE UNAVAILABLE: {}   attacker bus-offs: {}  first episode attempts: {:?}",
        defended.became_unavailable, defended.attacker_bus_offs, defended.first_episode_attempts
    );
    println!(
        "  status frames delivered: {}",
        defended.status_frames_received
    );
    println!("(paper: attack eradicated within 32 transmission attempts, ParkSense restored)");
}
