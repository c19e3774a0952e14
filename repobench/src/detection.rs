//! `detection_sweep`: the §V-B random-FSM sweep through
//! `bench::detection::run_sweep_with`. Pure `michican::detect`/`fsm`
//! work; the simulator is never touched.

use std::collections::BTreeSet;
use std::hint::black_box;

use bench::detection::{run_sweep_with, DetectionSweep};
use bench::runner::{derive_seed, ExecOpts};
use can_core::CanId;
use michican::detect::{classify, detection_range};
use michican::fsm::{DetectionFsm, FsmStep};
use michican::EcuList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    catch, digest_debug, measure, timed, Phase, PhaseClock, Report, Setups, Tracer,
};
use crate::Args;

/// FSMs per measured pass (one pass = one `run_sweep_with` call).
const FSMS_PER_PASS: usize = 500;
/// The sweep's IVN size range (the paper's large-vehicle regime).
const N_MIN: usize = 150;
const N_MAX: usize = 450;
/// Identifier bit times each FSM is verified over: 2048 ids × 11 bits.
const ID_BITS_PER_FSM: f64 = 2048.0 * 11.0;
/// The paper's mean detection bit position.
const PAPER_MEAN_POSITION: f64 = 9.0;

/// One benchmark-generated sweep cell: an ECU list and the member whose
/// detection FSM is built.
pub struct Cell {
    list: EcuList,
    index: usize,
}

/// Generates cell `i` of the sweep under `seed` exactly as the sweep
/// draws it (cell seed by index, IVN size, unique ids, member index), so
/// the oracle below sees the very FSMs the sweep evaluates.
fn generate(seed: u64, i: usize) -> Cell {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, i));
    let n = rng.random_range(N_MIN..=N_MAX);
    let mut ids = BTreeSet::new();
    while ids.len() < n {
        ids.insert(rng.random_range(0..=CanId::MAX_RAW));
    }
    let list =
        EcuList::new(ids.into_iter().map(CanId::from_raw).collect()).expect("a set has unique ids");
    let index = rng.random_range(0..list.len());
    Cell { list, index }
}

/// Exact integer tallies of one FSM, as the sweep sums them.
#[derive(Default, Clone, Copy)]
struct Tally {
    position_sum: u64,
    malicious: u64,
    detected: u64,
    benign: u64,
    false_positives: u64,
    nodes: u64,
}

/// Independent oracle for one cell: the detection set must agree with
/// the attack classifier, the FSM with the set, and `decision_position`
/// with a per-bit `step` walk.
fn oracle(cell: &Cell) -> Result<Tally, String> {
    let set = detection_range(&cell.list, cell.index);
    let fsm = DetectionFsm::from_set(&set);
    let mut t = Tally {
        nodes: fsm.node_count() as u64,
        ..Tally::default()
    };
    for id in CanId::all() {
        let truth = set.contains(id);
        if truth != classify(&cell.list, cell.index, id).is_malicious() {
            return Err(format!(
                "id {:#05x}: set and attack class disagree",
                id.raw()
            ));
        }
        let mut cursor = fsm.start();
        let (mut verdict, mut position) = (cursor.decision(), 0u8);
        if verdict.is_none() {
            for bit in id.bits() {
                match fsm.step(&mut cursor, bit) {
                    FsmStep::Undecided => continue,
                    step => {
                        verdict = Some(step == FsmStep::Malicious);
                        position = cursor.bits_consumed();
                        break;
                    }
                }
            }
        }
        if verdict != Some(truth) || fsm.classify(id) != truth {
            return Err(format!(
                "id {:#05x}: FSM verdict differs from the set",
                id.raw()
            ));
        }
        if fsm.decision_position(id) != position {
            return Err(format!(
                "id {:#05x}: decision_position differs from the step walk",
                id.raw()
            ));
        }
        if truth {
            t.malicious += 1;
            t.detected += 1;
            t.position_sum += u64::from(position);
        } else {
            t.benign += 1;
        }
    }
    Ok(t)
}

/// The sweep summary the oracle tallies imply, reduced the way the sweep
/// reduces them.
fn summary_of(tallies: &[Tally]) -> DetectionSweep {
    let mut s = Tally::default();
    for t in tallies {
        s.position_sum += t.position_sum;
        s.malicious += t.malicious;
        s.detected += t.detected;
        s.benign += t.benign;
        s.false_positives += t.false_positives;
        s.nodes += t.nodes;
    }
    DetectionSweep {
        fsm_count: tallies.len(),
        mean_detection_position: if s.detected == 0 {
            0.0
        } else {
            s.position_sum as f64 / s.detected as f64
        },
        detection_rate: if s.malicious == 0 {
            1.0
        } else {
            s.detected as f64 / s.malicious as f64
        },
        false_positive_rate: if s.benign == 0 {
            0.0
        } else {
            s.false_positives as f64 / s.benign as f64
        },
        mean_nodes: s.nodes as f64 / tallies.len().max(1) as f64,
    }
}

/// The traced pass: the sweep's per-cell work, one span per layer call.
/// With a disabled tracer it is the untraced copy the tracing overhead is
/// measured against.
fn traced_pass(tracer: &mut Tracer, seed: u64) {
    tracer.span("bench.detection.pass", 0, |tracer| {
        traced_cells(tracer, seed)
    });
}

fn traced_cells(tracer: &mut Tracer, seed: u64) {
    for i in 0..FSMS_PER_PASS {
        tracer.span("bench.detection.cell", i as u64, |t| {
            let cell = t.span("bench.detection.generate", i as u64, |_| generate(seed, i));
            let set = t.span("michican.detect.range", i as u64, |_| {
                detection_range(&cell.list, cell.index)
            });
            let fsm = t.span("michican.fsm.build", i as u64, |_| {
                DetectionFsm::from_set(&set)
            });
            t.span("michican.fsm.verify", i as u64, |_| {
                for id in CanId::all() {
                    if fsm.classify(id) {
                        black_box(fsm.decision_position(id));
                    }
                }
            });
            black_box(fsm.node_count());
        });
    }
}

/// The workload's inputs: the ECU lists of one pass, as the sweep draws
/// them under `seed`.
pub fn inputs(seed: u64) -> Vec<Cell> {
    (0..FSMS_PER_PASS).map(|i| generate(seed, i)).collect()
}

pub fn run(args: &Args, setups: &mut Setups) -> Report {
    let mut report = Report::default();
    let seed = args.seed;
    let cells = inputs(seed);

    let mut tracer = Tracer::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let passes = measure(
        args.seconds,
        3,
        args.trace.then_some(&mut tracer),
        || PhaseClock::new().time(|| run_sweep_with(FSMS_PER_PASS, seed, &ExecOpts::default())),
        |r| r,
        |t| {
            untraced_s.push(timed(|| traced_pass(&mut Tracer::disabled(), seed)));
            traced_s.push(timed(|| traced_pass(t, seed)));
        },
        |progress| setups.keep_up(progress),
    );
    let pass_s: Vec<Phase> = passes
        .iter()
        .map(|(total, out)| {
            out.as_ref().map_or(
                Phase {
                    host_s: *total,
                    slowdown: 1.0,
                },
                |(phase, _)| *phase,
            )
        })
        .collect();
    let passes: Vec<(f64, Result<DetectionSweep, String>)> = passes
        .into_iter()
        .map(|(total, out)| (total, out.map(|(_, sweep)| sweep)))
        .collect();
    let run_s = report.e2e_throughput(setups, &[pass_s], FSMS_PER_PASS as u64, ID_BITS_PER_FSM);
    report.attempted = (passes.len() * FSMS_PER_PASS) as u64;

    // Output checks, outside the timed passes.
    let oracle_results: Vec<Result<Tally, String>> = cells.iter().map(oracle).collect();
    let bad_cells = oracle_results.iter().filter(|r| r.is_err()).count() as u64;
    let first_err = oracle_results
        .iter()
        .find_map(|r| r.as_ref().err().cloned());
    report.check(
        "oracle (FSM vs IdSet::contains vs attack class, decision_position vs step walk)",
        bad_cells * passes.len() as u64,
        first_err.unwrap_or_else(|| format!("{FSMS_PER_PASS} generated FSMs x 2048 ids")),
    );
    let tallies: Vec<Tally> = oracle_results.into_iter().filter_map(Result::ok).collect();
    let expected = summary_of(&tallies);
    let sharded =
        catch(|| run_sweep_with(FSMS_PER_PASS, seed, &ExecOpts::default().with_shards(2)));
    let failed_passes = passes
        .iter()
        .filter(|(_, out)| {
            !matches!(out, Ok(s) if s.detection_rate == 1.0
                && s.false_positive_rate == 0.0
                && bad_cells == 0
                && *s == expected
                && sharded.as_ref() == Ok(s))
        })
        .count() as u64;
    report.check(
        "summary (rate 1.0, FP 0.0, equal to the oracle, every repetition, shards 1 vs 2)",
        failed_passes * FSMS_PER_PASS as u64,
        format!("{} passes, {failed_passes} differing", passes.len()),
    );
    let cells_run = report.attempted;
    let outputs = [("summary".to_string(), digest_debug(&expected))];
    crate::pinned::check(&mut report, "detection_sweep", seed, &outputs, cells_run);
    report.note(format!(
        "fidelity: mean detection position {:.3} bits (paper: {PAPER_MEAN_POSITION}), detection rate {}, FP rate {}, mean FSM states {:.1}",
        expected.mean_detection_position,
        expected.detection_rate,
        expected.false_positive_rate,
        expected.mean_nodes
    ));

    if args.trace {
        let us = |name: &str| -> Vec<f64> {
            tracer
                .durations_ns(name)
                .iter()
                .map(|ns| ns / 1e3)
                .collect()
        };
        report.layer_dist(
            "michican.detect.range_us",
            &us("michican.detect.range"),
            "us",
        );
        report.layer_dist("michican.fsm.build_us", &us("michican.fsm.build"), "us");
        report.layer_dist("michican.fsm.verify_us", &us("michican.fsm.verify"), "us");
        let nodes: Vec<f64> = tallies.iter().map(|t| t.nodes as f64).collect();
        report.layer_dist("michican.fsm.nodes", &nodes, "count");
        let (_, pass, _) = tracer
            .median_span("bench.detection.pass", 0)
            .expect("a traced pass");
        let spans_ns: u64 = [
            "michican.detect.range",
            "michican.fsm.build",
            "michican.fsm.verify",
        ]
        .iter()
        .map(|name| tracer.sum_within(pass, name))
        .sum();
        report.layer(
            "bench.detection.residual_s",
            run_s - spans_ns as f64 / 1e9,
            "s",
        );
        crate::trace_overhead(&mut report, &traced_s, &untraced_s);
        report.spans = tracer.into_spans();
    }
    report
}
