//! Detection-latency sweep (paper §V-B).
//!
//! "Our evaluation with 160,000 random FSMs yielded a mean detection bit
//! position of 9 bits. Furthermore, the evaluation confirmed a 100 %
//! detection rate." This module reruns exactly that: random ECU lists,
//! the FSM of a random member, and a check of the FSM against its
//! detection range over the whole 11-bit identifier space. The check is
//! one leaf walk of the FSM reduced against the range's rank table
//! ([`DetectionFsm::tally`]): the same integer sums as classifying all
//! 2048 identifiers one by one, at the cost of the FSM's size.

use can_core::CanId;
use can_obs::Recorder;
use michican::detect::detection_range;
use michican::fsm::DetectionFsm;
use michican::EcuList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::runner::{ExecOpts, ExperimentPlan};

/// Aggregate result of the random-FSM sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionSweep {
    /// Number of FSMs evaluated.
    pub fsm_count: usize,
    /// Mean detection bit position over all (FSM, malicious id) pairs.
    pub mean_detection_position: f64,
    /// Fraction of malicious identifiers correctly flagged (must be 1.0).
    pub detection_rate: f64,
    /// Fraction of benign identifiers incorrectly flagged (must be 0.0).
    pub false_positive_rate: f64,
    /// Mean FSM state count (firmware footprint).
    pub mean_nodes: f64,
}

/// Generates a random ECU list of `n` distinct identifiers: uniform draws,
/// repeats rejected, until `n` are taken. The draws mark a 2048-bit
/// bitmap, which is then read out in ascending order.
fn random_list(rng: &mut StdRng, n: usize) -> EcuList {
    let mut taken = [0u64; 1 << CanId::BITS >> 6];
    let mut count = 0;
    while count < n {
        let raw = rng.random_range(0..=CanId::MAX_RAW);
        let (word, bit) = (usize::from(raw >> 6), 1u64 << (raw & 63));
        if taken[word] & bit == 0 {
            taken[word] |= bit;
            count += 1;
        }
    }
    let mut ids = Vec::with_capacity(n);
    for (word, &bits) in (0u16..).zip(&taken) {
        let mut rest = bits;
        while rest != 0 {
            ids.push(CanId::from_raw(word << 6 | rest.trailing_zeros() as u16));
            rest &= rest - 1;
        }
    }
    EcuList::new(ids).expect("unique ids")
}

/// Integer tallies of one FSM cell — everything the sweep summary needs,
/// in exactly-summable form (no floats until the final reduction, so the
/// summary is bit-identical for any execution order).
#[derive(Debug, Clone, Copy, Default)]
struct FsmCellTally {
    position_sum: u64,
    malicious_total: u64,
    detected: u64,
    benign_total: u64,
    false_positives: u64,
    nodes: u64,
}

/// Evaluates one random FSM: builds a random list seeded by the cell seed,
/// the FSM of a random member, and checks it against the detection range
/// over the whole 2048-identifier space by one leaf walk.
fn sweep_cell(seed: u64, n_min: usize, n_max: usize, recorder: &Recorder) -> FsmCellTally {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(n_min..=n_max);
    let list = random_list(&mut rng, n);
    let index = rng.random_range(0..list.len());
    let ranks = detection_range(&list, index).ranks();
    let fsm = DetectionFsm::from_ranks(&ranks);
    let leaves = fsm.tally(&ranks);

    let tally = FsmCellTally {
        position_sum: leaves.position_sum(),
        malicious_total: leaves.members,
        detected: leaves.detected_total(),
        benign_total: leaves.non_members(),
        false_positives: leaves.false_positives(),
        nodes: fsm.node_count() as u64,
    };
    if recorder.is_enabled() {
        recorder.inc("sweep_fsms_total");
        recorder.observe("sweep_fsm_nodes", tally.nodes);
        for (position, &ids) in (0u64..).zip(&leaves.detected) {
            recorder.observe_n("sweep_detection_position_bits", position, ids);
        }
        recorder.add("sweep_malicious_ids_total", tally.malicious_total);
        recorder.add("sweep_detected_ids_total", tally.detected);
        recorder.add("sweep_benign_ids_total", tally.benign_total);
        recorder.add("sweep_false_positives_total", tally.false_positives);
    }
    tally
}

/// Runs the sweep over `fsm_count` random FSMs with IVN sizes drawn
/// uniformly from `[n_min, n_max]`, fanned out on `shards` workers.
///
/// For each random list the FSM of a random member is built; detection
/// correctness is checked over the whole 2048-identifier space and the
/// decision position is accumulated over the malicious identifiers, both
/// from one leaf walk of the FSM (see the module docs).
/// Every FSM is an independent cell whose RNG is seeded from the master
/// seed by cell index, so the summary is identical for every shard count.
///
/// The mean detection position grows with the IVN size (the paper's "as
/// the size of IVN 𝔼 grows, the detection bit position rises"): ≈ 4.7
/// bits at N = 10, ≈ 7.7 at N = 100, ≈ 9 at N ≈ 300 — the regime matching
/// the paper's reported mean of 9.
pub fn run_sweep_with_sizes_sharded(
    fsm_count: usize,
    seed: u64,
    n_min: usize,
    n_max: usize,
    shards: usize,
) -> DetectionSweep {
    run_sweep_with_sizes_with(
        fsm_count,
        seed,
        n_min,
        n_max,
        &ExecOpts::default().with_shards(shards),
    )
}

/// [`run_sweep_with_sizes_sharded`] under explicit execution options:
/// per-cell registries (FSM/id tallies and the decision-position
/// histogram) are merged into `opts.recorder` in cell index order, so the
/// merged snapshot is byte-identical for every shard count. (The sweep is
/// pure FSM verification — no simulator is involved, so `opts.mode` has
/// no effect here.)
pub fn run_sweep_with_sizes_with(
    fsm_count: usize,
    seed: u64,
    n_min: usize,
    n_max: usize,
    opts: &ExecOpts,
) -> DetectionSweep {
    assert!(n_min >= 1 && n_min <= n_max && n_max <= 1024);
    let tallies = ExperimentPlan::new(vec![(); fsm_count], seed)
        .with_shards(opts.shards.max(1))
        .run_metered(&opts.recorder, |_index, cell_seed, (), cell_recorder| {
            sweep_cell(cell_seed, n_min, n_max, cell_recorder)
        });

    let mut total = FsmCellTally::default();
    for t in &tallies {
        total.position_sum += t.position_sum;
        total.malicious_total += t.malicious_total;
        total.detected += t.detected;
        total.benign_total += t.benign_total;
        total.false_positives += t.false_positives;
        total.nodes += t.nodes;
    }

    DetectionSweep {
        fsm_count,
        mean_detection_position: if total.detected == 0 {
            0.0
        } else {
            total.position_sum as f64 / total.detected as f64
        },
        detection_rate: if total.malicious_total == 0 {
            1.0
        } else {
            total.detected as f64 / total.malicious_total as f64
        },
        false_positive_rate: if total.benign_total == 0 {
            0.0
        } else {
            total.false_positives as f64 / total.benign_total as f64
        },
        mean_nodes: total.nodes as f64 / fsm_count.max(1) as f64,
    }
}

/// Serial-path wrapper of [`run_sweep_with_sizes_sharded`] (`shards == 1`).
pub fn run_sweep_with_sizes(
    fsm_count: usize,
    seed: u64,
    n_min: usize,
    n_max: usize,
) -> DetectionSweep {
    run_sweep_with_sizes_sharded(fsm_count, seed, n_min, n_max, 1)
}

/// The default sweep: IVN sizes in the large-vehicle regime (N 150–450)
/// where the paper's mean detection position of ≈ 9 bits is reproduced.
pub fn run_sweep(fsm_count: usize, seed: u64) -> DetectionSweep {
    run_sweep_sharded(fsm_count, seed, 1)
}

/// [`run_sweep`] on `shards` workers; the summary is identical for every
/// shard count.
pub fn run_sweep_sharded(fsm_count: usize, seed: u64, shards: usize) -> DetectionSweep {
    run_sweep_with_sizes_sharded(fsm_count, seed, 150, 450, shards)
}

/// [`run_sweep`] under explicit execution options (default IVN sizes).
pub fn run_sweep_with(fsm_count: usize, seed: u64, opts: &ExecOpts) -> DetectionSweep {
    run_sweep_with_sizes_with(fsm_count, seed, 150, 450, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_perfect_and_early() {
        let sweep = run_sweep(200, 7);
        assert_eq!(sweep.detection_rate, 1.0, "paper: 100 % detection");
        assert_eq!(sweep.false_positive_rate, 0.0);
        // Paper: mean detection bit position of ≈ 9 bits.
        assert!(
            (8.0..=10.0).contains(&sweep.mean_detection_position),
            "mean position {}",
            sweep.mean_detection_position
        );
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        assert_eq!(run_sweep(50, 42), run_sweep(50, 42));
        assert_ne!(run_sweep(50, 42), run_sweep(50, 43));
    }

    #[test]
    fn bitmap_list_matches_a_btree_set_reference() {
        let reference = |rng: &mut StdRng, n: usize| {
            let mut ids = std::collections::BTreeSet::new();
            while ids.len() < n {
                ids.insert(rng.random_range(0..=CanId::MAX_RAW));
            }
            EcuList::new(ids.into_iter().map(CanId::from_raw).collect()).unwrap()
        };
        for seed in 0..64u64 {
            let n = [1, 2, 150, 300, 450, 1024, 2048][seed as usize % 7];
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            assert_eq!(
                random_list(&mut a, n),
                reference(&mut b, n),
                "seed {seed}, n {n}"
            );
            assert_eq!(a.random::<u64>(), b.random::<u64>(), "same draws consumed");
        }
    }

    #[test]
    fn fsms_stay_compact() {
        let sweep = run_sweep(100, 1);
        assert!(
            sweep.mean_nodes < 512.0,
            "hash-consed FSMs are small: {}",
            sweep.mean_nodes
        );
    }
}
