//! Network-level detection analysis.
//!
//! Tools for reasoning about a whole MichiCAN deployment:
//!
//! * exact decision-depth statistics reduced from the FSM's one leaf walk
//!   ([`DetectionFsm::tally`]) — no per-identifier walks — so a profile
//!   costs a few microseconds and paper-scale sweeps (160,000 FSMs) stay
//!   cheap;
//! * the coverage/redundancy matrix behind the paper's robustness
//!   argument (§IV-A): "even if |𝔼| − 1 ECUs fail (which is highly
//!   unlikely), one ECU can still detect the attack".

use can_core::CanId;

use crate::config::{EcuList, Scenario};
use crate::detect::{scenario_range, IdSet};
use crate::fsm::{deepest, weighted_sum, DetectionFsm};

/// Exact decision-depth statistics of one FSM, by structural recursion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthProfile {
    /// Number of identifiers decided *malicious*, total.
    pub malicious_ids: u64,
    /// Mean decision depth over malicious identifiers (bits consumed).
    pub mean_malicious_depth: f64,
    /// Mean decision depth over benign identifiers.
    pub mean_benign_depth: f64,
    /// Maximum decision depth over all identifiers.
    pub max_depth: u8,
}

/// Computes the exact [`DepthProfile`] of an FSM without enumerating
/// identifiers, from the per-depth verdict counts of its leaf walk.
///
/// ```
/// use michican::analysis::depth_profile;
/// use michican::fsm::DetectionFsm;
/// use michican::detect::IdSet;
/// use can_core::CanId;
///
/// let set = IdSet::interval(CanId::new(0).unwrap(), CanId::new(0x3FF).unwrap());
/// let profile = depth_profile(&DetectionFsm::from_set(&set));
/// assert_eq!(profile.malicious_ids, 1024);
/// assert_eq!(profile.mean_malicious_depth, 1.0); // the MSB decides
/// ```
pub fn depth_profile(fsm: &DetectionFsm) -> DepthProfile {
    // The verdict-side bins do not depend on the ground truth, so any
    // rank table serves; the empty set's is the cheapest to state.
    let tally = fsm.tally(&IdSet::empty().ranks());
    let mean = |by_depth: &[u64]| {
        let ids: u64 = by_depth.iter().sum();
        if ids == 0 {
            0.0
        } else {
            weighted_sum(by_depth) as f64 / ids as f64
        }
    };
    DepthProfile {
        malicious_ids: tally.flagged.iter().sum(),
        mean_malicious_depth: mean(&tally.flagged),
        mean_benign_depth: mean(&tally.passed),
        max_depth: deepest(&tally.flagged).max(deepest(&tally.passed)),
    }
}

/// Coverage of one identifier across a deployment: how many ECUs would
/// flag it.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Scenario analyzed.
    pub scenario: Scenario,
    /// For each identifier outside 𝔼: the number of ECUs detecting it
    /// (index = raw identifier).
    detectors: Vec<u16>,
    /// Number of identifiers attackable by a DoS (below the highest
    /// legitimate identifier, not legitimate) that no ECU detects.
    pub uncovered_dos_ids: usize,
    /// Minimum redundancy over all covered malicious identifiers.
    pub min_redundancy: u16,
    /// Mean redundancy over all covered malicious identifiers.
    pub mean_redundancy: f64,
}

impl CoverageReport {
    /// How many ECUs detect `id`.
    pub fn detectors_of(&self, id: CanId) -> u16 {
        self.detectors[id.raw() as usize]
    }
}

/// Builds the deployment coverage report for `list` under `scenario`.
pub fn coverage(list: &EcuList, scenario: Scenario) -> CoverageReport {
    let mut detectors = vec![0u16; 1 << CanId::BITS];
    for index in 0..list.len() {
        let range = scenario_range(list, index, scenario);
        for id in range.iter() {
            detectors[id.raw() as usize] += 1;
        }
    }

    let highest = list.id_at(list.len() - 1);
    let mut uncovered = 0usize;
    let mut covered_counts: Vec<u16> = Vec::new();
    for raw in 0..=CanId::MAX_RAW {
        let id = CanId::from_raw(raw);
        if list.contains(id) {
            continue;
        }
        if id.outranks(highest) || id == highest {
            // A DoS-usable identifier: someone should cover it.
            if detectors[raw as usize] == 0 {
                uncovered += 1;
            } else {
                covered_counts.push(detectors[raw as usize]);
            }
        }
    }

    CoverageReport {
        scenario,
        min_redundancy: covered_counts.iter().copied().min().unwrap_or(0),
        mean_redundancy: if covered_counts.is_empty() {
            0.0
        } else {
            covered_counts.iter().map(|&c| c as u64).sum::<u64>() as f64
                / covered_counts.len() as f64
        },
        uncovered_dos_ids: uncovered,
        detectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detection_range;

    #[test]
    fn depth_profile_matches_exhaustive_walk() {
        let list = EcuList::from_raw(&[0x040, 0x173, 0x25F, 0x51C]);
        for index in 0..list.len() {
            let set = detection_range(&list, index);
            let fsm = DetectionFsm::from_set(&set);
            let profile = depth_profile(&fsm);

            // Exhaustive reference.
            let mut sum = 0u64;
            let mut count = 0u64;
            let mut max = 0u8;
            for id in CanId::all() {
                let depth = fsm.decision_position(id);
                max = max.max(depth);
                if fsm.classify(id) {
                    sum += depth as u64;
                    count += 1;
                }
            }
            assert_eq!(profile.malicious_ids, count, "index {index}");
            assert!(
                (profile.mean_malicious_depth - sum as f64 / count as f64).abs() < 1e-9,
                "index {index}"
            );
            assert_eq!(profile.max_depth, max, "index {index}");
        }
    }

    #[test]
    fn constant_fsm_profiles() {
        let empty = depth_profile(&DetectionFsm::from_set(&IdSet::empty()));
        assert_eq!(empty.malicious_ids, 0);
        assert_eq!(empty.mean_benign_depth, 0.0, "root decides at depth 0");

        let full = depth_profile(&DetectionFsm::from_set(&IdSet::interval(
            CanId::from_raw(0),
            CanId::from_raw(0x7FF),
        )));
        assert_eq!(full.malicious_ids, 2048);
        assert_eq!(full.mean_malicious_depth, 0.0);
    }

    #[test]
    fn full_scenario_coverage_has_full_redundancy_at_the_bottom() {
        // Identifier 0x000 is below every ECU: in the full scenario every
        // ECU detects it — the paper's |𝔼|-way redundancy.
        let list = EcuList::from_raw(&[0x100, 0x200, 0x300, 0x400]);
        let report = coverage(&list, Scenario::Full);
        assert_eq!(report.detectors_of(CanId::from_raw(0x000)), 4);
        assert_eq!(report.uncovered_dos_ids, 0, "no DoS identifier escapes");
        assert!(report.min_redundancy >= 1);
        assert!(report.mean_redundancy > 1.0);
    }

    #[test]
    fn light_scenario_halves_redundancy_but_keeps_coverage() {
        let list = EcuList::from_raw(&[0x100, 0x200, 0x300, 0x400]);
        let full = coverage(&list, Scenario::Full);
        let light = coverage(&list, Scenario::Light);
        // The paper's trade-off: still no uncovered DoS identifiers…
        assert_eq!(light.uncovered_dos_ids, 0);
        // …but fewer simultaneous detectors.
        assert!(light.mean_redundancy < full.mean_redundancy);
        assert_eq!(light.detectors_of(CanId::from_raw(0x000)), 2, "only 𝔼₂");
    }

    #[test]
    fn identifiers_between_ecus_are_covered_by_higher_ones() {
        let list = EcuList::from_raw(&[0x100, 0x400]);
        let report = coverage(&list, Scenario::Full);
        // 0x250 outranks 0x400 but not 0x100: only the 0x400 ECU sees it.
        assert_eq!(report.detectors_of(CanId::from_raw(0x250)), 1);
        // 0x050 outranks both.
        assert_eq!(report.detectors_of(CanId::from_raw(0x050)), 2);
        // 0x500 outranks nobody: miscellaneous, covered by nobody.
        assert_eq!(report.detectors_of(CanId::from_raw(0x500)), 0);
    }
}
