//! Simulator throughput: bit-ticks per second with realistic node counts —
//! validates that 2-second captures (100k bits at 50 kbit/s) stay cheap.

use std::hint::black_box;

use bench::scenarios::restbus_matrix;
use can_core::app::SilentApplication;
use can_core::bitstream::{stuff_frame, IFS_BITS};
use can_core::{BitInstant, BusSpeed, CanFrame, CanId, Level};
use can_sim::{Controller, ControllerConfig, Node, SimBuilder, StepOutput};
use criterion::{criterion_group, criterion_main, Criterion};
use restbus::ReplayApp;

fn bench_sim(c: &mut Criterion) {
    // One controller alone, without the simulator around it: the cost of
    // its bit step on an idle bus and over one received frame.
    c.bench_function("sim/controller_idle_bit", |b| {
        let mut controller = Controller::new(ControllerConfig::default());
        let mut out = StepOutput::default();
        for t in 0..11 {
            controller.on_sample_into(Level::Recessive, BitInstant::from_bits(t), &mut out);
        }
        b.iter(|| {
            controller.on_sample_into(black_box(Level::Recessive), BitInstant::ZERO, &mut out);
        })
    });

    c.bench_function("sim/controller_receive_frame", |b| {
        let frame = CanFrame::data_frame(CanId::from_raw(0x173), &[0xA5; 8]).unwrap();
        let mut wire = stuff_frame(&frame).bits;
        // The frame, then the interframe space that returns it to idle.
        wire.extend([Level::Recessive; IFS_BITS]);
        let mut controller = Controller::new(ControllerConfig::default());
        let mut out = StepOutput::default();
        for t in 0..11 {
            controller.on_sample_into(Level::Recessive, BitInstant::from_bits(t), &mut out);
        }
        b.iter(|| {
            let mut received = 0;
            for &bit in &wire {
                out.clear();
                controller.on_sample_into(black_box(bit), BitInstant::ZERO, &mut out);
                received += usize::from(out.received.is_some());
            }
            received
        })
    });

    c.bench_function("sim/idle_bus_3_nodes_1k_bits", |b| {
        b.iter(|| {
            let mut builder = SimBuilder::new(BusSpeed::K500);
            for i in 0..3 {
                builder = builder.node(Node::new(format!("n{i}"), Box::new(SilentApplication)));
            }
            let mut sim = builder.build();
            sim.run(black_box(1_000));
            sim.now()
        })
    });

    c.bench_function("sim/restbus_replay_1k_bits", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(BusSpeed::K50)
                .node(Node::new(
                    "restbus",
                    Box::new(ReplayApp::for_matrix(&restbus_matrix())),
                ))
                .node(Node::new("rx", Box::new(SilentApplication)))
                .build();
            sim.run(black_box(1_000));
            sim.events().len()
        })
    });

    c.bench_function("sim/restbus_replay_1k_bits_no_logging", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(BusSpeed::K50)
                .event_logging(false)
                .node(Node::new(
                    "restbus",
                    Box::new(ReplayApp::for_matrix(&restbus_matrix())),
                ))
                .node(Node::new("rx", Box::new(SilentApplication)))
                .build();
            sim.run(black_box(1_000));
            sim.busy_bits()
        })
    });

    c.bench_function("sim/table2_experiment4_full_episode", |b| {
        use bench::scenarios::{build_experiment, table2_experiments};
        let exp = table2_experiments()
            .into_iter()
            .find(|e| e.number == 4)
            .unwrap();
        b.iter(|| {
            let (mut sim, _) = build_experiment(black_box(&exp));
            sim.run_until(5_000, |e| matches!(e.kind, can_sim::EventKind::BusOff))
        })
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
