//! Differential oracle for the FSM leaf walk: the tally reduced from one
//! walk of the unfolded trie ([`DetectionFsm::tally`]) must equal, field
//! for field, what an exhaustive loop over all 2048 identifiers counts
//! with `IdSet::contains`, `classify` and `decision_position` — also for
//! an FSM checked against a set it was not built from.

use can_core::CanId;
use michican::analysis::depth_profile;
use michican::detect::{detection_range, IdSet};
use michican::fsm::{DetectionFsm, DetectionStats, LeafTally};
use michican::EcuList;
use proptest::prelude::*;

/// The exhaustive per-identifier reference of [`LeafTally`].
fn exhaustive(fsm: &DetectionFsm, truth: &IdSet) -> LeafTally {
    let mut t = LeafTally::default();
    for id in CanId::all() {
        let member = truth.contains(id);
        let depth = fsm.decision_position(id) as usize;
        t.members += u64::from(member);
        if fsm.classify(id) {
            t.flagged[depth] += 1;
            t.detected[depth] += u64::from(member);
        } else {
            t.passed[depth] += 1;
        }
    }
    t
}

/// The exhaustive reference of [`DetectionStats::evaluate`], as the
/// per-identifier loop computed it before the leaf walk.
fn exhaustive_stats(fsm: &DetectionFsm, set: &IdSet) -> DetectionStats {
    let (mut members, mut detected, mut benign, mut false_positives) = (0u64, 0u64, 0u64, 0u64);
    let (mut position_sum, mut position_max) = (0u64, 0u8);
    for id in CanId::all() {
        let verdict = fsm.classify(id);
        if set.contains(id) {
            members += 1;
            if verdict {
                detected += 1;
                let position = fsm.decision_position(id);
                position_sum += u64::from(position);
                position_max = position_max.max(position);
            }
        } else {
            benign += 1;
            false_positives += u64::from(verdict);
        }
    }
    let ratio = |n: u64, d: u64, empty: f64| if d == 0 { empty } else { n as f64 / d as f64 };
    DetectionStats {
        malicious_ids: members as usize,
        detection_rate: ratio(detected, members, 1.0),
        false_positive_rate: ratio(false_positives, benign, 0.0),
        mean_detection_position: ratio(position_sum, detected, 0.0),
        max_detection_position: position_max,
    }
}

/// Checks the leaf walk of `fsm` against `truth` and returns the tally.
fn check(fsm: &DetectionFsm, truth: &IdSet) -> LeafTally {
    let tally = fsm.tally(&truth.ranks());
    assert_eq!(tally, exhaustive(fsm, truth));
    assert_eq!(
        DetectionStats::evaluate(fsm, truth),
        exhaustive_stats(fsm, truth)
    );

    // The leaves tile the identifier space in ascending order, each a
    // power-of-two range of the size its depth implies.
    let mut next = 0;
    fsm.for_each_leaf(|leaf| {
        assert_eq!(leaf.lo, next, "leaves are contiguous");
        assert_eq!(
            leaf.hi - leaf.lo,
            2048 >> leaf.depth,
            "range size 2^(11-depth)"
        );
        next = leaf.hi;
    });
    assert_eq!(next, 2048);

    let profile = depth_profile(fsm);
    let flagged: u64 = tally.flagged.iter().sum();
    assert_eq!(profile.malicious_ids, flagged);
    let max = CanId::all()
        .map(|id| fsm.decision_position(id))
        .max()
        .unwrap();
    assert_eq!(profile.max_depth, max);
    tally
}

fn list(ids: &[u16]) -> EcuList {
    EcuList::from_raw(ids)
}

#[test]
fn empty_set() {
    let set = IdSet::empty();
    let tally = check(&DetectionFsm::from_set(&set), &set);
    assert_eq!(tally.members, 0);
    assert_eq!(tally.passed[0], 2048, "a constant FSM decides at depth 0");
}

#[test]
fn full_set() {
    let set = IdSet::interval(CanId::from_raw(0), CanId::from_raw(0x7FF));
    let tally = check(&DetectionFsm::from_set(&set), &set);
    assert_eq!(tally.detected[0], 2048);
    assert_eq!(tally.non_members(), 0);
}

#[test]
fn index_zero() {
    let list = list(&[0x000, 0x123, 0x456]);
    let set = detection_range(&list, 0);
    let tally = check(&DetectionFsm::from_set(&set), &set);
    assert_eq!(tally.members, 1, "own id 0x000 only");
    assert_eq!(tally.position_max(), 11);

    let list = self::list(&[0x0F0, 0x123, 0x456]);
    let set = detection_range(&list, 0);
    check(&DetectionFsm::from_set(&set), &set);
}

#[test]
fn own_id_0x7ff() {
    let list = list(&[0x005, 0x3FF, 0x400, 0x7FE, 0x7FF]);
    let set = detection_range(&list, list.len() - 1);
    let tally = check(&DetectionFsm::from_set(&set), &set);
    assert_eq!(tally.members, 2048 - 4);
    assert_eq!(tally.false_positives(), 0);
}

#[test]
fn lsb_periodic_set() {
    // Even identifiers only: every decision needs all 11 bits.
    let odd: Vec<CanId> = (0..2048u16)
        .filter(|r| r % 2 == 1)
        .map(CanId::from_raw)
        .collect();
    let set = IdSet::prefix_minus_points(CanId::from_raw(0x7FF), &odd);
    let tally = check(&DetectionFsm::from_set(&set), &set);
    assert_eq!(tally.detected[11], 1024);
    assert_eq!(tally.position_sum(), 1024 * 11);
}

#[test]
fn mismatched_fsm_counts_misses_and_false_positives() {
    let list = list(&[0x010, 0x123, 0x456, 0x700]);
    let fsm = DetectionFsm::from_set(&detection_range(&list, 2));
    let truth = detection_range(&list, 3);
    let tally = check(&fsm, &truth);
    assert!(tally.detected_total() < tally.members, "misses are counted");

    let fsm = DetectionFsm::from_set(&detection_range(&list, 3));
    let truth = detection_range(&list, 1);
    assert!(check(&fsm, &truth).false_positives() > 0, "FPs are counted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The leaf tally equals the exhaustive walk on random detection
    /// ranges of lists of 1–1024 ECUs.
    #[test]
    fn leaf_tally_equals_exhaustive_walk(
        ids in proptest::collection::btree_set(0u16..=CanId::MAX_RAW, 1..=1024),
        pick in any::<u16>(),
    ) {
        let list = EcuList::new(ids.into_iter().map(CanId::from_raw).collect()).unwrap();
        let index = pick as usize % list.len();
        let set = detection_range(&list, index);
        let tally = check(&DetectionFsm::from_set(&set), &set);
        prop_assert_eq!(tally.detected_total() as usize, set.len());
        prop_assert_eq!(tally.false_positives(), 0);
    }

    /// It stays exact for an FSM measured against another member's range.
    #[test]
    fn leaf_tally_is_exact_for_a_wrong_fsm(
        ids in proptest::collection::btree_set(0u16..=CanId::MAX_RAW, 1..=1024),
        built in any::<u16>(),
        measured in any::<u16>(),
    ) {
        let list = EcuList::new(ids.into_iter().map(CanId::from_raw).collect()).unwrap();
        let fsm = DetectionFsm::from_set(&detection_range(&list, built as usize % list.len()));
        check(&fsm, &detection_range(&list, measured as usize % list.len()));
    }
}
