//! Pinned event log of a noisy four-node bus: every controller transition
//! the lockstep bit step can take, under every engine, hashed into one
//! digest that must never move.
//!
//! The bus carries a restbus replay node and three periodic senders (one
//! of them shares identifier 0x0C0 with the replay node, so both win
//! arbitration and then clash in the data field) under a random-flip
//! channel, a dense scripted flip burst (which drives transmitters into
//! bus-off and back through the 128 × 11-bit recovery) and a
//! stuck-dominant transceiver window. The test first checks that the
//! run really covers each transition class — arbitration loss, ACK error,
//! receive done and receive fault, active and passive error flags, an
//! error-passive transmitter's intermission → suspend, bus-off and
//! recovery — then compares the FNV-1a digest of the whole event log with
//! a pinned value. Any change to the controller's behaviour, however
//! small, moves the digest.

use can_core::app::PeriodicSender;
use can_core::errors::CanErrorKind;
use can_core::{BusSpeed, CanFrame, CanId, ErrorState};
use can_sim::{
    ErrorRole, Event, EventKind, FaultModel, FaultStack, Node, SimBuilder, Simulator, TxFault,
};
use restbus::{CommMatrix, Message, ReplayApp};

const BITS: u64 = 200_000;

/// FNV-1a digest and length of the event log of [`build`] run for
/// [`BITS`] bits.
const PINNED_DIGEST: u64 = 0xe7de_cd4c_939a_601f;
const PINNED_EVENTS: usize = 16_540;

fn frame(id: u16, data: &[u8]) -> CanFrame {
    CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
}

fn replay_matrix() -> CommMatrix {
    let message = |id: u16, period_ms: u32, dlc: u8| Message {
        id: CanId::from_raw(id),
        period_ms,
        dlc,
        sender: "rest".into(),
        name: format!("M{id:03X}"),
    };
    CommMatrix::new(
        "digest",
        BusSpeed::K500,
        vec![
            message(0x0C0, 2, 8),
            message(0x1A0, 4, 2),
            message(0x2F0, 4, 0),
            message(0x3FF, 10, 8),
        ],
    )
}

fn build() -> Simulator {
    // A dense burst of flips (every 29th bit) over 30,000 bits: every
    // frame in it fails, so transmitters climb to bus-off.
    let burst: Vec<u64> = (90_000..120_000).step_by(29).collect();
    SimBuilder::new(BusSpeed::K500)
        .node(Node::new(
            "rest",
            Box::new(ReplayApp::for_matrix(&replay_matrix())),
        ))
        .node(Node::new(
            "p100",
            Box::new(PeriodicSender::new(frame(0x100, &[0x5A; 8]), 700, 13)),
        ))
        .node(
            Node::new(
                "p0f0",
                Box::new(PeriodicSender::new(frame(0x0F0, &[0x81, 0x7E]), 900, 211)),
            )
            .with_tx_fault(TxFault::stuck_dominant(40_000, 40_400)),
        )
        .node(Node::new(
            "p0c0",
            Box::new(PeriodicSender::new(frame(0x0C0, &[0x33; 4]), 1_300, 0)),
        ))
        .faults(
            FaultStack::new()
                .layer(FaultModel::random(4e-4, 0x5EED))
                .layer(FaultModel::scripted(burst)),
        )
        .build()
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest(events: &[Event]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for e in events {
        fnv1a(
            &mut hash,
            format!("{} {} {:?}\n", e.at.bits(), e.node, e.kind).as_bytes(),
        );
    }
    hash
}

/// Counts of each transition class in one event log.
#[derive(Debug, Default)]
struct Coverage {
    arbitration_lost: usize,
    ack_errors: usize,
    received: usize,
    receive_faults: usize,
    active_flags: usize,
    passive_flags: usize,
    passive_successes: usize,
    bus_offs: usize,
    recoveries: usize,
}

fn coverage(events: &[Event], nodes: usize) -> Coverage {
    let mut state = vec![ErrorState::ErrorActive; nodes];
    let mut c = Coverage::default();
    for e in events {
        match &e.kind {
            EventKind::ArbitrationLost { .. } => c.arbitration_lost += 1,
            EventKind::FrameReceived { .. } => c.received += 1,
            EventKind::ErrorDetected { kind, role } => {
                if *kind == CanErrorKind::Ack {
                    c.ack_errors += 1;
                }
                if *role == ErrorRole::Receiver {
                    c.receive_faults += 1;
                }
                // The flag's polarity follows the state before the error.
                match state[e.node] {
                    ErrorState::ErrorActive => c.active_flags += 1,
                    _ => c.passive_flags += 1,
                }
            }
            // An error-passive transmitter chains its intermission into
            // suspend-transmission after a successful frame.
            EventKind::TransmissionSucceeded { .. } => {
                if state[e.node] == ErrorState::ErrorPassive {
                    c.passive_successes += 1;
                }
            }
            EventKind::ErrorStateChanged { state: s } => state[e.node] = *s,
            EventKind::BusOff => c.bus_offs += 1,
            EventKind::Recovered => c.recoveries += 1,
            EventKind::TransmissionStarted { .. } => {}
        }
    }
    c
}

#[test]
fn noisy_bus_covers_every_controller_transition() {
    let mut sim = build();
    sim.run(BITS);
    let c = coverage(sim.events(), sim.node_count());
    println!("{c:?}");
    assert!(c.arbitration_lost > 0, "{c:?}");
    assert!(c.ack_errors > 0, "{c:?}");
    assert!(c.received > 0, "{c:?}");
    assert!(c.receive_faults > 0, "{c:?}");
    assert!(c.active_flags > 0, "{c:?}");
    assert!(c.passive_flags > 0, "{c:?}");
    assert!(c.passive_successes > 0, "{c:?}");
    assert!(c.bus_offs > 0, "{c:?}");
    assert!(c.recoveries > 0, "{c:?}");
}

#[test]
fn event_log_digest_is_pinned_in_every_engine() {
    type Engine = fn(&mut Simulator, u64);
    let runs: [(&str, Engine); 3] = [
        ("lockstep", Simulator::run),
        ("fast-forward", Simulator::run_fast),
        ("packed", Simulator::run_packed),
    ];
    for (engine, run) in runs {
        let mut sim = build();
        run(&mut sim, BITS);
        let events = sim.events();
        println!(
            "{engine}: {} events, digest {:#018x}",
            events.len(),
            digest(events)
        );
        assert_eq!(events.len(), PINNED_EVENTS, "{engine}");
        assert_eq!(digest(events), PINNED_DIGEST, "{engine}");
    }
}
