//! The layer ablation ladder: ns per simulated bit on one fixed 500 kbit/s
//! bus built with `SimBuilder`, adding one layer per step, in each engine.

use bench::runner::{ExecOpts, SimMode};
use can_core::app::{PeriodicSender, SilentApplication};
use can_core::{BusSpeed, CanFrame, CanId};
use can_ids::DetectorTap;
use can_obs::{Journal, Recorder};
use can_sim::telemetry::FallbackCause;
use can_sim::{FaultModel, Node, SimBuilder, Simulator};
use michican::prelude::*;
use restbus::{vehicle_matrix, CommMatrix, ReplayApp, Vehicle};

use crate::common::{median, Report, Tracer};

/// Cumulative steps. The first three additions should move
/// `fault_campaign`'s `sim_bits_per_s`, the last three
/// `defense_grid_observed`'s.
pub const STEPS: [&str; 7] = [
    "bare", "restbus", "agent", "fault", "tap", "recorder", "journal",
];
const MOVES: [&str; 7] = [
    "-",
    "fault_campaign",
    "fault_campaign",
    "fault_campaign",
    "defense_grid_observed",
    "defense_grid_observed",
    "defense_grid_observed",
];
pub const ENGINES: [&str; 3] = ["lockstep", "fast_forward", "packed"];
const MODES: [SimMode; 3] = [SimMode::Lockstep, SimMode::FastForward, SimMode::Packed];
const SPANS: [&str; 3] = ["layers.lockstep", "layers.fast_forward", "layers.packed"];

/// Bits per measured run, and runs per (step, engine); each step reports
/// its median run, as `run_s` does.
const BITS: u64 = 200_000;
const REPS: usize = 5;
const OWN_ID: u16 = 0x173;

fn engine_label(mode: SimMode) -> &'static str {
    ENGINES[MODES.iter().position(|m| *m == mode).expect("known engine")]
}

/// The fixed bus at ladder step `step` (every earlier step's layer on).
fn build(step: usize, seed: u64) -> Simulator {
    let speed = BusSpeed::K500;
    let own = CanId::from_raw(OWN_ID);
    let recorder = if step >= 5 {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let journal = if step >= 6 {
        Journal::enabled()
    } else {
        Journal::disabled()
    };
    let full = vehicle_matrix(Vehicle::D, 0, speed);
    let messages = full
        .messages()
        .iter()
        .filter(|m| m.id != own)
        .cloned()
        .collect();
    let matrix = CommMatrix::new("veh-d-ladder", speed, messages);

    let frame = CanFrame::data_frame(own, &[0x00; 8]).expect("valid frame");
    let mut rx = Node::new("rx", Box::new(SilentApplication));
    if step >= 2 {
        let mut ids = matrix.ids();
        ids.push(own);
        let list = EcuList::new(ids).expect("matrix ids are unique");
        let mut agent = MichiCan::new(DetectionFsm::for_monitor(&list));
        agent.set_recorder(recorder.clone(), 1);
        agent.set_journal(journal.clone(), 1);
        rx = rx.with_agent(Box::new(agent));
    }
    let mut b = SimBuilder::new(speed)
        .recorder(recorder.clone())
        .journal(journal.clone())
        .node(Node::new(
            "tx",
            Box::new(PeriodicSender::new(frame, 600, 0)),
        ))
        .node(rx);
    if step >= 1 {
        b = b.node(Node::new(
            "restbus",
            Box::new(ReplayApp::for_matrix(&matrix)),
        ));
    }
    if step >= 3 {
        b = b.fault(FaultModel::random(1e-3, seed));
    }
    if step >= 4 {
        for v in can_ids::registry::all_variants() {
            let tap = DetectorTap::new(v.label(), v.instantiate())
                .with_arm_at(BITS / 4)
                .with_recorder(recorder.clone())
                .with_journal(journal.clone(), 3);
            b = b.tap(tap.as_frame_tap());
        }
    }
    b.build()
}

/// Runs the ladder and reports `layers.<step>.ns_per_bit.<engine>`,
/// `layers.<step>.packed_fallbacks` and the residual between the
/// workload's end-to-end ns/bit and the ladder up to `last_step`, the last
/// layer on the workload's path, in the default engine.
pub fn run(
    report: &mut Report,
    tracer: &mut Tracer,
    seed: u64,
    e2e_ns_per_bit: f64,
    last_step: &str,
) {
    let last = STEPS
        .iter()
        .position(|s| *s == last_step)
        .expect("a ladder step");
    let mut path_default = 0.0;
    let default = engine_label(ExecOpts::default().mode);
    for (step, name) in STEPS.iter().enumerate() {
        let mut causes = [0u64; 8];
        let mut samples = [(); 3].map(|_| Vec::with_capacity(REPS));
        for _ in 0..REPS {
            for (e, (mode, span)) in MODES.into_iter().zip(SPANS).enumerate() {
                let mut sim = build(step, seed);
                tracer.span(span, step as u64, |_| {
                    ExecOpts::new().with_mode(mode).run(&mut sim, BITS)
                });
                samples[e].push(tracer.last_ns(span) as f64 / BITS as f64);
                if mode == SimMode::Packed {
                    let k = sim.kernel_telemetry();
                    for (slot, cause) in causes.iter_mut().zip(FallbackCause::ALL) {
                        *slot = k.fallback_count(cause);
                    }
                }
            }
        }
        for (engine, samples) in ENGINES.iter().zip(&samples) {
            let ns = median(samples);
            report.layer(&format!("layers.{name}.ns_per_bit.{engine}"), ns, "ns/bit");
            if *engine == default && step == last {
                path_default = ns;
            }
        }
        report.layer(
            &format!("layers.{name}.packed_fallbacks"),
            causes.iter().sum::<u64>() as f64,
            "count",
        );
        let by_cause: Vec<String> = FallbackCause::ALL
            .iter()
            .zip(causes)
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{}={n}", c.label()))
            .collect();
        report.note(format!(
            "ladder {name} (moves {}): packed fallbacks by cause: {}",
            MOVES[step],
            if by_cause.is_empty() {
                "none".to_string()
            } else {
                by_cause.join(" ")
            }
        ));
    }
    report.layer(
        "layers.residual_ns_per_bit",
        e2e_ns_per_bit - path_default,
        "ns/bit",
    );
    report.note(format!(
        "ladder residual: workload {e2e_ns_per_bit:.1} ns/bit end to end vs {path_default:.1} ns/bit for the ladder up to `{last_step}` ({default})"
    ));
}
