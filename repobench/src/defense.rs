//! `defense_grid_observed`: the adversary zoo (`attackzoo::run_zoo_with`,
//! 13 variants × 3 defenses) and the IDS bake-off
//! (`idsbench::run_ids_with`, 6 detectors) at the `--full` horizon, with
//! an enabled `Recorder` and `Journal` and the snapshot JSON, journal
//! JSONL and chrome trace rendered in memory.

use std::time::Instant;

use bench::attackzoo::{
    assert_zoo_coverage, build_zoo_cell_observed, render_zoo_table, run_zoo_cell, run_zoo_with,
    zoo_cells, ZooCell, ZooOutcome,
};
use bench::idsbench::{
    assert_ids_honesty, build_ids_cell_observed, detector_grid_for, ids_cells, render_ids_table,
    run_ids_cell, run_ids_with, IdsCell, IdsOutcome, ONE_FRAME_BITS,
};
use bench::runner::{ExecOpts, SimMode};
use can_ids::registry::DetectorVariant;
use can_obs::{Journal, Recorder};
use can_sim::telemetry::FallbackCause;
use can_sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    catch, digest, digest_debug, measure, Phase, PhaseClock, Report, Setups, Tracer,
};
use crate::Args;

/// Bits per cell: the `experiments attacks|ids --full` horizon.
const HORIZON_BITS: u64 = 100_000;

/// The workload's inputs: both grids in a seed-drawn cell order, and the
/// full detector registry.
pub struct Inputs {
    zoo: Vec<ZooCell>,
    ids: Vec<IdsCell>,
    detectors: Vec<DetectorVariant>,
}

fn shuffle<T>(cells: &mut [T], rng: &mut StdRng) {
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.random_range(0..=i));
    }
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut zoo = zoo_cells();
    shuffle(&mut zoo, &mut rng);
    let mut ids = ids_cells();
    shuffle(&mut ids, &mut rng);
    Inputs {
        zoo,
        ids,
        detectors: detector_grid_for("all").expect("the full detector grid"),
    }
}

/// The two grids. Each runs and renders as its own `experiments attacks`
/// or `experiments ids` invocation would with `--metrics-out` and
/// `--journal-out`: its own recorder and journal, its own exports.
#[derive(Clone, Copy)]
enum Grid {
    Zoo,
    Ids,
}

const GRIDS: [Grid; 2] = [Grid::Zoo, Grid::Ids];

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Zoo => "zoo",
            Grid::Ids => "ids",
        }
    }

    /// Root span of one traced run of the grid.
    fn span(self) -> &'static str {
        match self {
            Grid::Zoo => "bench.attackzoo.pass",
            Grid::Ids => "bench.idsbench.pass",
        }
    }

    /// Span around the runner call (`ExperimentPlan::run_observed` inside).
    fn observed_span(self) -> &'static str {
        match self {
            Grid::Zoo => "bench.runner.run_observed.zoo",
            Grid::Ids => "bench.runner.run_observed.ids",
        }
    }
}

enum Outcomes {
    Zoo(Vec<ZooOutcome>),
    Ids(Vec<IdsOutcome>),
}

/// Everything one grid run produces.
struct Output {
    outcomes: Outcomes,
    snapshot: String,
    export: String,
    chrome: String,
    journal_events: usize,
    /// Host ns the runner spent inside cells (its `bench_cell_wall` span).
    cells_ns: u64,
}

fn run_grid(
    inputs: &Inputs,
    grid: Grid,
    base: &ExecOpts,
    t: &mut Tracer,
) -> Result<Output, String> {
    let recorder = Recorder::enabled();
    let journal = Journal::enabled();
    let opts = base
        .clone()
        .with_recorder(recorder.clone())
        .with_journal(journal.clone());
    t.span(grid.span(), 0, |t| {
        let outcomes = t.span(grid.observed_span(), 0, |_| match grid {
            Grid::Zoo => Outcomes::Zoo(run_zoo_with(inputs.zoo.clone(), HORIZON_BITS, &opts)),
            Grid::Ids => Outcomes::Ids(run_ids_with(
                inputs.ids.clone(),
                inputs.detectors.clone(),
                HORIZON_BITS,
                &opts,
            )),
        });
        let snapshot = t.span("can_obs.snapshot", 0, |_| recorder.snapshot_json());
        let export = t.span("can_obs.journal.export", 0, |_| journal.export_jsonl());
        let chrome = t.span("can_trace.chrome", 0, |_| {
            can_trace::chrome_trace_json(&export)
        })?;
        Ok(Output {
            outcomes,
            snapshot,
            export,
            chrome,
            journal_events: journal.with_store(|s| s.len()).unwrap_or(0),
            cells_ns: recorder
                .with_registry(|r| r.span_stats("bench_cell_wall").map_or(0, |s| s.total_ns))
                .unwrap_or(0),
        })
    })
}

/// Host seconds and output of each grid run of one pass.
type GridRuns = Vec<(Phase, Result<Output, String>)>;

/// One pass: both grids, each timed on its own, in the engine `base`
/// selects (the default, or lockstep for the reference); untraced without
/// a `tracer`.
fn pass(inputs: &Inputs, base: &ExecOpts, tracer: Option<&mut Tracer>) -> GridRuns {
    let mut untraced = Tracer::disabled();
    let t = tracer.unwrap_or(&mut untraced);
    let mut clock = PhaseClock::new();
    GRIDS
        .iter()
        .map(|grid| clock.time(|| run_grid(inputs, *grid, base, t)))
        .collect()
}

/// The digests one grid run is checked by, its invariant verdict and its
/// fidelity figures.
struct GridSummary {
    phase: Phase,
    cells: Vec<u64>,
    table: u64,
    snapshot: u64,
    export: u64,
    chrome: u64,
    export_bytes: usize,
    journal_events: usize,
    cells_ns: u64,
    invariants: Result<(), String>,
    /// Smallest frame-level IDS latency and largest MichiCAN reaction, bits.
    ids_min_latency: Option<u64>,
    michican_max_latency: Option<u64>,
}

type PassSummary = Result<Vec<GridSummary>, String>;

fn summarize(pass: Result<GridRuns, String>) -> PassSummary {
    pass?
        .into_iter()
        .map(|(phase, out)| {
            let out = out?;
            let (cells, table, invariants, ids_min_latency, michican_max_latency) =
                match &out.outcomes {
                    Outcomes::Zoo(o) => (
                        o.iter().map(digest_debug).collect(),
                        digest(render_zoo_table(o).as_bytes()),
                        catch(|| assert_zoo_coverage(o)),
                        None,
                        None,
                    ),
                    Outcomes::Ids(o) => {
                        let attacked = || o.iter().filter(|c| c.attack_start_bits.is_some());
                        (
                            o.iter().map(digest_debug).collect(),
                            digest(render_ids_table(o).as_bytes()),
                            catch(|| assert_ids_honesty(o)),
                            attacked()
                                .flat_map(|c| {
                                    c.detectors.iter().filter_map(|d| d.detection_latency_bits)
                                })
                                .min(),
                            attacked().filter_map(|c| c.defense_latency_bits).max(),
                        )
                    }
                };
            Ok(GridSummary {
                phase,
                cells,
                table,
                snapshot: digest(out.snapshot.as_bytes()),
                export: digest(out.export.as_bytes()),
                chrome: digest(out.chrome.as_bytes()),
                export_bytes: out.snapshot.len() + out.export.len() + out.chrome.len(),
                journal_events: out.journal_events,
                cells_ns: out.cells_ns,
                invariants,
                ids_min_latency,
                michican_max_latency,
            })
        })
        .collect()
}

/// Cells of a pass that fail against the lockstep reference: a grid whose
/// invariants, snapshot, journal export or chrome trace differ fails all
/// its cells, otherwise each differing cell outcome fails.
fn failed_cells(got: &PassSummary, want: &PassSummary, cells: u64) -> u64 {
    let (Ok(got), Ok(want)) = (got, want) else {
        return cells;
    };
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let whole = g.invariants.is_err()
                || (g.snapshot, g.export, g.chrome, g.table)
                    != (w.snapshot, w.export, w.chrome, w.table)
                || g.cells.len() != w.cells.len();
            if whole {
                w.cells.len() as u64
            } else {
                g.cells.iter().zip(&w.cells).filter(|(a, b)| a != b).count() as u64
            }
        })
        .sum()
}

/// Sums the kernel telemetry of a finished simulator into `acc`:
/// lockstep, skipped and packed bits, stretches, then fallbacks by cause.
fn add_telemetry(acc: &mut [u64; 12], sim: &Simulator) {
    let k = sim.kernel_telemetry();
    for (slot, v) in acc.iter_mut().zip([
        k.lockstep_bits(),
        k.skipped_bits(),
        k.packed_bits(),
        k.stretches(),
    ]) {
        *slot += v;
    }
    for (i, cause) in FallbackCause::ALL.iter().enumerate() {
        acc[4 + i] += k.fallback_count(*cause);
    }
}

/// The per-cell decomposition: the whole cell, then its build and its
/// simulate step on their own.
fn decompose(report: &mut Report, tracer: &mut Tracer, inputs: &Inputs) {
    let run = ExecOpts::default();
    let mut kernel = [0u64; 12];
    let (mut zoo_reduce, mut ids_reduce) = (Vec::new(), Vec::new());
    let (mut with_detectors_ns, mut without_detectors_ns) = (0u64, 0u64);
    let fresh = || {
        ExecOpts::default()
            .with_recorder(Recorder::enabled())
            .with_journal(Journal::enabled())
    };
    for (i, cell) in inputs.zoo.iter().enumerate() {
        let id = i as u64;
        tracer.span("bench.attackzoo.cell", id, |t| {
            t.span("bench.attackzoo.run_cell", id, |_| {
                run_zoo_cell(cell, HORIZON_BITS, &fresh())
            });
            let mut zs = t.span("bench.attackzoo.build", id, |_| {
                build_zoo_cell_observed(cell, Recorder::enabled(), Journal::enabled())
            });
            t.span("can_sim.simulate", id, |_| {
                run.run(&mut zs.sim, HORIZON_BITS)
            });
            add_telemetry(&mut kernel, &zs.sim);
            zoo_reduce.push(
                t.last_ns("bench.attackzoo.run_cell") as f64
                    - t.last_ns("bench.attackzoo.build") as f64
                    - t.last_ns("can_sim.simulate") as f64,
            );
        });
    }
    for (i, cell) in inputs.ids.iter().enumerate() {
        let id = (inputs.zoo.len() + i) as u64;
        tracer.span("bench.idsbench.cell", id, |t| {
            t.span("bench.idsbench.run_cell", id, |_| {
                run_ids_cell(cell, &inputs.detectors, HORIZON_BITS, &fresh())
            });
            let mut is = t.span("bench.idsbench.build", id, |_| {
                build_ids_cell_observed(
                    cell,
                    &inputs.detectors,
                    Recorder::enabled(),
                    Journal::enabled(),
                )
            });
            t.span("can_sim.simulate", id, |_| {
                run.run(&mut is.sim, HORIZON_BITS)
            });
            add_telemetry(&mut kernel, &is.sim);
            with_detectors_ns += t.last_ns("can_sim.simulate");
            ids_reduce.push(
                t.last_ns("bench.idsbench.run_cell") as f64
                    - t.last_ns("bench.idsbench.build") as f64
                    - t.last_ns("can_sim.simulate") as f64,
            );
            let mut bare =
                build_ids_cell_observed(cell, &[], Recorder::enabled(), Journal::enabled());
            t.span("can_sim.simulate_without_detectors", id, |_| {
                run.run(&mut bare.sim, HORIZON_BITS)
            });
            without_detectors_ns += t.last_ns("can_sim.simulate_without_detectors");
        });
    }
    let us = |name: &str| -> Vec<f64> {
        tracer
            .durations_ns(name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    report.layer_dist(
        "bench.attackzoo.build_us",
        &us("bench.attackzoo.build"),
        "us",
    );
    report.layer_dist("bench.idsbench.build_us", &us("bench.idsbench.build"), "us");
    let sim_ms: Vec<f64> = tracer
        .durations_ns("can_sim.simulate")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    report.layer_dist("can_sim.simulate_ms", &sim_ms, "ms");
    let to_us = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    report.layer_dist("bench.attackzoo.reduce_us", &to_us(zoo_reduce), "us");
    report.layer_dist("bench.idsbench.reduce_us", &to_us(ids_reduce), "us");
    let ids_bits = (inputs.ids.len() as u64 * HORIZON_BITS) as f64;
    report.layer(
        "can_ids.detectors_ns_per_bit",
        (with_detectors_ns as f64 - without_detectors_ns as f64) / ids_bits,
        "ns/bit",
    );
    for (name, v) in ["lockstep_bits", "skipped_bits", "packed_bits", "stretches"]
        .iter()
        .zip(&kernel[..4])
    {
        report.layer(&format!("can_sim.kernel.{name}"), *v as f64, "count");
    }
    for (cause, v) in FallbackCause::ALL.iter().zip(&kernel[4..]) {
        report.layer(
            &format!("can_sim.fallback.{}", cause.label()),
            *v as f64,
            "count",
        );
    }
    let fallbacks: u64 = kernel[4..].iter().sum();
    let attempts = kernel[3] + fallbacks;
    report.layer(
        "can_sim.packed.useful_ratio",
        if attempts == 0 {
            0.0
        } else {
            kernel[3] as f64 / attempts as f64
        },
        "ratio",
    );
}

pub fn run(args: &Args, setups: &mut Setups) -> Report {
    let mut report = Report::default();
    let inputs = inputs(args.seed);
    let cells_per_pass = (inputs.zoo.len() + inputs.ids.len()) as u64;

    let mut tracer = Tracer::new();
    let mut traced: Vec<PassSummary> = Vec::new();
    let mut traced_s = Vec::new();
    let passes = measure(
        args.seconds,
        3,
        args.trace.then_some(&mut tracer),
        || pass(&inputs, &ExecOpts::default(), None),
        summarize,
        |t| {
            let start = Instant::now();
            let out = catch(|| pass(&inputs, &ExecOpts::default(), Some(t)));
            traced_s.push(start.elapsed().as_secs_f64());
            traced.push(summarize(out));
        },
        |progress| setups.keep_up(progress),
    );
    let phases: Vec<Vec<Phase>> = (0..GRIDS.len())
        .map(|g| {
            passes
                .iter()
                .map(|(total, p)| {
                    p.as_ref().map_or(
                        Phase {
                            host_s: *total,
                            slowdown: 1.0,
                        },
                        |p| p[g].phase,
                    )
                })
                .collect()
        })
        .collect();
    let run_s = report.e2e_throughput(setups, &phases, cells_per_pass, HORIZON_BITS as f64);
    report.attempted = passes.len() as u64 * cells_per_pass;

    // Output checks, outside the timed passes.
    let lockstep = ExecOpts::new().with_mode(SimMode::Lockstep);
    let reference = summarize(catch(|| pass(&inputs, &lockstep, None)));
    if let Ok(grids) = &reference {
        for g in grids {
            if let Err(e) = &g.invariants {
                report.note(format!("lockstep reference broke an invariant: {e}"));
            }
        }
    }
    let failed: u64 = passes
        .iter()
        .map(|(_, got)| failed_cells(got, &reference, cells_per_pass))
        .sum();
    report.check(
        "zoo coverage + IDS honesty asserts; outcomes, tables, snapshot, journal export and chrome trace equal the lockstep reference",
        failed,
        format!("{} passes x {cells_per_pass} cells", passes.len()),
    );
    if !traced.is_empty() {
        report.check(
            "traced passes equal the lockstep reference",
            traced
                .iter()
                .map(|got| failed_cells(got, &reference, cells_per_pass))
                .sum(),
            format!("{} traced passes", traced.len()),
        );
    }
    let mut outputs = Vec::new();
    if let Some((_, Ok(grids))) = passes.first() {
        for (grid, s) in GRIDS.iter().zip(grids) {
            let g = grid.name();
            outputs.extend([
                (format!("{g}.table"), s.table),
                (format!("{g}.snapshot"), s.snapshot),
                (format!("{g}.journal"), s.export),
                (format!("{g}.chrome"), s.chrome),
            ]);
        }
        let show = |v: Option<u64>| v.map_or("-".to_string(), |b| b.to_string());
        let ids = &grids[1];
        report.note(format!(
            "fidelity: frame-level IDS latency >= {ONE_FRAME_BITS} bits (min {}), MichiCAN reaction < {ONE_FRAME_BITS} bits (max {}); {} journal events",
            show(ids.ids_min_latency),
            show(ids.michican_max_latency),
            grids.iter().map(|g| g.journal_events).sum::<usize>()
        ));
    }
    let cells = report.attempted;
    crate::pinned::check(
        &mut report,
        "defense_grid_observed",
        args.seed,
        &outputs,
        cells,
    );

    if args.trace {
        // Per grid, its median traced run, as `run_s` takes the median.
        let (mut export_ms, mut snapshot_ms, mut chrome_ms, mut merge_ms) = (0.0, 0.0, 0.0, 0.0);
        for (g, grid) in GRIDS.iter().enumerate() {
            let (nth, root, _) = tracer.median_span(grid.span(), 0).expect("a traced pass");
            let within_ms = |name: &str| tracer.sum_within(root, name) as f64 / 1e6;
            export_ms += within_ms("can_obs.journal.export");
            snapshot_ms += within_ms("can_obs.snapshot");
            chrome_ms += within_ms("can_trace.chrome");
            if let Ok(grids) = &traced[nth] {
                merge_ms += within_ms(grid.observed_span()) - grids[g].cells_ns as f64 / 1e6;
            }
        }
        if let Some(Ok(grids)) = traced.first() {
            let sum = |f: fn(&GridSummary) -> usize| grids.iter().map(f).sum::<usize>() as f64;
            report.layer("can_obs.journal.events", sum(|g| g.journal_events), "count");
            report.layer("can_obs.export_bytes", sum(|g| g.export_bytes), "bytes");
        }
        report.layer("can_obs.journal.export_ms", export_ms, "ms");
        report.layer("can_obs.snapshot_ms", snapshot_ms, "ms");
        report.layer("can_trace.chrome_ms", chrome_ms, "ms");
        report.layer("bench.runner.merge_ms", merge_ms, "ms");
        let untraced_s: Vec<f64> = passes.iter().map(|(secs, _)| *secs).collect();
        crate::trace_overhead(&mut report, &traced_s, &untraced_s);
        decompose(&mut report, &mut tracer, &inputs);
        let bits_per_pass = (cells_per_pass * HORIZON_BITS) as f64;
        crate::ladder::run(
            &mut report,
            &mut tracer,
            args.seed,
            run_s / bits_per_pass * 1e9,
            "journal",
        );
        report.spans = tracer.into_spans();
    }
    report
}
