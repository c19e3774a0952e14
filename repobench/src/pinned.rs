//! Recorded digests of the deterministic outputs for the pinned seed.
//!
//! Only program outputs are digested (the sweep summary, the campaign
//! reports, the zoo/IDS tables, the metrics snapshot, the journal export
//! and the chrome trace) — never host timings, paths or shard counts, so
//! the digests hold on any host and at any shard count.

use crate::common::Report;

/// The seed whose outputs are pinned below.
pub const PINNED_SEED: u64 = 1;
/// Held out: never used while tuning the benchmark; claims of a gain
/// should be repeated on it.
pub const HELD_OUT_SEED: u64 = 20_251_017;

/// `(workload, output, FNV-1a digest)` for [`PINNED_SEED`].
const DIGESTS: &[(&str, &str, u64)] = &[
    ("detection_sweep", "summary", 0x4d4e_94e1_7c85_83b0),
    ("fault_campaign", "report.0", 0x4f4e_2d7b_c5e5_e061),
    ("fault_campaign", "report.1", 0x5b86_b367_4141_524a),
    ("fault_campaign", "report.2", 0xe317_d92b_e2ba_2e99),
    ("fault_campaign", "report.3", 0xc226_decd_d432_3fc0),
    ("defense_grid_observed", "zoo.table", 0xf40e_2a1d_134f_c912),
    (
        "defense_grid_observed",
        "zoo.snapshot",
        0x2b64_e987_931a_0028,
    ),
    (
        "defense_grid_observed",
        "zoo.journal",
        0x8aef_d6ad_3df2_6eef,
    ),
    ("defense_grid_observed", "zoo.chrome", 0xad94_44d4_e237_c043),
    ("defense_grid_observed", "ids.table", 0x41f2_3f85_4526_0e30),
    (
        "defense_grid_observed",
        "ids.snapshot",
        0x88ab_0b58_69fa_5e4e,
    ),
    (
        "defense_grid_observed",
        "ids.journal",
        0x4eef_d3a2_c966_add0,
    ),
    ("defense_grid_observed", "ids.chrome", 0xe683_8fbd_ee1e_2869),
];

/// Compares `outputs` with the recorded digests when `seed` is the pinned
/// seed; any mismatch fails all `cells` measured cells.
pub fn check(
    report: &mut Report,
    workload: &str,
    seed: u64,
    outputs: &[(String, u64)],
    cells: u64,
) {
    check_against(DIGESTS, report, workload, seed, outputs, cells);
}

fn check_against(
    table: &[(&str, &str, u64)],
    report: &mut Report,
    workload: &str,
    seed: u64,
    outputs: &[(String, u64)],
    cells: u64,
) {
    for (name, d) in outputs {
        report.note(format!("digest {workload}/{name} = {d:#018x}"));
    }
    if seed != PINNED_SEED {
        report.note(format!(
            "digests: none recorded for seed {seed} (pinned seed {PINNED_SEED})"
        ));
        return;
    }
    let expected: Vec<(&str, u64)> = table
        .iter()
        .filter(|(w, _, _)| *w == workload)
        .map(|(_, name, d)| (*name, *d))
        .collect();
    let got: Vec<(&str, u64)> = outputs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    let same = !expected.is_empty() && expected == got;
    report.check(
        "digests of the pinned seed",
        if same { 0 } else { cells },
        format!("{} outputs", expected.len()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs_of(workload: &str) -> Vec<(String, u64)> {
        DIGESTS
            .iter()
            .filter(|(w, _, _)| *w == workload)
            .map(|(_, n, d)| (n.to_string(), *d))
            .collect()
    }

    #[test]
    fn every_workload_has_pinned_digests() {
        for w in crate::WORKLOADS {
            assert!(!outputs_of(w).is_empty(), "{w}");
        }
    }

    #[test]
    fn recorded_outputs_pass_and_a_flipped_digest_fails() {
        for w in crate::WORKLOADS {
            let outputs = outputs_of(w);
            let mut ok = Report {
                attempted: 10,
                ..Report::default()
            };
            check(&mut ok, w, PINNED_SEED, &outputs, 10);
            assert_eq!(ok.failed, 0);
            assert_eq!(crate::exit_code(&ok), 0);

            let mut flipped: Vec<(&str, &str, u64)> = DIGESTS.to_vec();
            let entry = flipped
                .iter_mut()
                .find(|(x, _, _)| *x == w)
                .expect("pinned");
            entry.2 ^= 1;
            let mut bad = Report {
                attempted: 10,
                ..Report::default()
            };
            check_against(&flipped, &mut bad, w, PINNED_SEED, &outputs, 10);
            assert_eq!(bad.failed, 10);
            assert_ne!(crate::exit_code(&bad), 0);
        }
    }

    #[test]
    fn other_seeds_are_not_digest_checked() {
        let mut r = Report::default();
        check(
            &mut r,
            "fault_campaign",
            HELD_OUT_SEED,
            &[("x".into(), 1)],
            5,
        );
        assert_eq!(r.failed, 0);
    }
}
