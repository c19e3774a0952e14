//! FSM benchmarks: construction cost, per-bit step cost, classification
//! throughput — the per-bit step is the heart of MichiCAN's interrupt
//! handler budget (§V-D).

use std::hint::black_box;

use can_core::{CanId, Level};
use criterion::{criterion_group, criterion_main, Criterion};
use michican::detect::detection_range;
use michican::fsm::DetectionFsm;
use michican::EcuList;

fn sample_list(n: usize) -> EcuList {
    // Deterministic spread over the identifier space.
    let ids: Vec<CanId> = (0..n)
        .map(|i| CanId::from_raw(((i * 211 + 17) % 0x7FF) as u16))
        .collect();
    EcuList::new(ids).expect("distinct ids")
}

fn bench_fsm(c: &mut Criterion) {
    let list = sample_list(64);
    let set = detection_range(&list, list.len() - 1);
    let fsm = DetectionFsm::from_set(&set);

    c.bench_function("fsm/build_64_ecus", |b| {
        b.iter(|| DetectionFsm::from_set(black_box(&set)))
    });

    // The §V-B sweep's regime: IVN sizes 150–450, FSM of a mid-list
    // member. Build includes the rank table; the leaf tally is the sweep's
    // whole-identifier-space check.
    let ivn = sample_list(300);
    let ivn_set = detection_range(&ivn, ivn.len() / 2);
    c.bench_function("fsm/build_300_ecus", |b| {
        b.iter(|| DetectionFsm::from_set(black_box(&ivn_set)))
    });
    let ivn_ranks = ivn_set.ranks();
    let ivn_fsm = DetectionFsm::from_ranks(&ivn_ranks);
    c.bench_function("fsm/leaf_tally", |b| {
        b.iter(|| black_box(&ivn_fsm).tally(black_box(&ivn_ranks)))
    });

    c.bench_function("fsm/step_single_bit", |b| {
        let mut cursor = fsm.start();
        b.iter(|| {
            let out = fsm.step(black_box(&mut cursor), Level::Dominant);
            cursor = fsm.start();
            out
        })
    });

    c.bench_function("fsm/classify_full_id", |b| {
        let id = CanId::from_raw(0x2A5);
        b.iter(|| fsm.classify(black_box(id)))
    });

    c.bench_function("fsm/classify_whole_id_space", |b| {
        b.iter(|| {
            let mut malicious = 0u32;
            for id in CanId::all() {
                malicious += fsm.classify(id) as u32;
            }
            malicious
        })
    });

    // Ablation: pruned/hash-consed FSM vs a naive linear interval scan.
    let intervals: Vec<(u16, u16)> = set.intervals().to_vec();
    c.bench_function("fsm/ablation_interval_scan", |b| {
        let id = CanId::from_raw(0x2A5);
        b.iter(|| {
            let raw = black_box(id).raw();
            intervals.iter().any(|&(lo, hi)| raw >= lo && raw <= hi)
        })
    });
}

criterion_group!(benches, bench_fsm);
criterion_main!(benches);
