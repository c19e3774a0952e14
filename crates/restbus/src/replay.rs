//! Restbus replay: driving a communication matrix onto a simulated bus.
//!
//! The paper replays recorded Veh. D traffic through a PCAN-USB interface
//! (§V-A); here a [`ReplayApp`] generates the same periodic pattern from a
//! [`CommMatrix`]. One replay application can stand in for the whole rest
//! of the vehicle on a single node, or the matrix can be split by sender
//! across several nodes (`one node per ECU`) for full arbitration
//! fidelity.

use can_core::app::Application;
use can_core::{BitInstant, CanFrame, CanId};

use crate::matrix::CommMatrix;

struct Slot {
    frame: CanFrame,
    period_bits: u64,
    next_due: u64,
}

/// An [`Application`] transmitting every message of a matrix (or a
/// sender's share of it) at its configured period.
pub struct ReplayApp {
    slots: Vec<Slot>,
    /// The earliest `next_due` over all slots (`None` without slots), so
    /// a poll before it answers in O(1); slots are rescanned only when
    /// one fires.
    earliest: Option<u64>,
    generated: u64,
}

impl ReplayApp {
    /// Replays the full matrix from one node.
    ///
    /// Message phases are staggered deterministically to avoid a
    /// synchronized burst at t = 0.
    pub fn for_matrix(matrix: &CommMatrix) -> Self {
        Self::filtered(matrix, |_| true)
    }

    /// Replays only the messages of `sender`.
    pub fn for_sender(matrix: &CommMatrix, sender: &str) -> Self {
        Self::filtered(matrix, |m| m.sender == sender)
    }

    fn filtered(matrix: &CommMatrix, keep: impl Fn(&crate::matrix::Message) -> bool) -> Self {
        let speed = matrix.speed;
        let slots = matrix
            .messages()
            .iter()
            .filter(|m| keep(m))
            .enumerate()
            .map(|(i, m)| {
                let payload: Vec<u8> = (0..m.dlc)
                    .map(|b| (m.id.raw() as u8).wrapping_add(b).wrapping_mul(37))
                    .collect();
                let period_bits = speed.bits_in_millis(m.period_ms as f64).max(1);
                Slot {
                    frame: CanFrame::data_frame(m.id, &payload).expect("matrix DLC is valid"),
                    period_bits,
                    // Stagger offsets across the period.
                    next_due: (i as u64 * 131) % period_bits.max(1),
                }
            })
            .collect::<Vec<_>>();
        ReplayApp {
            earliest: earliest_due(&slots),
            slots,
            generated: 0,
        }
    }

    /// Frames handed to the controller so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Identifiers this replayer produces.
    pub fn ids(&self) -> Vec<CanId> {
        self.slots.iter().map(|s| s.frame.id()).collect()
    }
}

fn earliest_due(slots: &[Slot]) -> Option<u64> {
    slots.iter().map(|slot| slot.next_due).min()
}

impl Application for ReplayApp {
    /// Hands out the first due slot in matrix order; slots due on the same
    /// bit come out one per poll, in that order.
    fn poll(&mut self, now: BitInstant) -> Option<CanFrame> {
        if self.earliest.is_none_or(|due| now.bits() < due) {
            return None;
        }
        let slot = self.slots.iter_mut().find(|s| now.bits() >= s.next_due)?;
        slot.next_due += slot.period_bits;
        let frame = slot.frame;
        self.generated += 1;
        self.earliest = earliest_due(&self.slots);
        Some(frame)
    }

    fn next_activity(&self, _now: BitInstant) -> Option<BitInstant> {
        self.earliest.map(BitInstant::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Message;
    use can_core::BusSpeed;

    fn tiny_matrix() -> CommMatrix {
        CommMatrix::new(
            "tiny",
            BusSpeed::K500,
            vec![
                Message {
                    id: CanId::from_raw(0x100),
                    period_ms: 10,
                    dlc: 8,
                    sender: "engine".into(),
                    name: "A".into(),
                },
                Message {
                    id: CanId::from_raw(0x200),
                    period_ms: 20,
                    dlc: 4,
                    sender: "brake".into(),
                    name: "B".into(),
                },
            ],
        )
    }

    #[test]
    fn replays_all_messages() {
        let mut app = ReplayApp::for_matrix(&tiny_matrix());
        let mut seen = std::collections::HashSet::new();
        for t in 0..30_000u64 {
            if let Some(f) = app.poll(BitInstant::from_bits(t)) {
                seen.insert(f.id().raw());
            }
        }
        assert_eq!(seen.len(), 2);
        // 60 ms of 500 kbit/s: 6 × 0x100 + 3 × 0x200 ≈ 9 frames.
        assert!((7..=11).contains(&app.generated()), "{}", app.generated());
    }

    #[test]
    fn sender_filter_limits_ids() {
        let app = ReplayApp::for_sender(&tiny_matrix(), "brake");
        assert_eq!(app.ids(), vec![CanId::from_raw(0x200)]);
    }

    #[test]
    fn payload_is_deterministic() {
        let mut a = ReplayApp::for_matrix(&tiny_matrix());
        let mut b = ReplayApp::for_matrix(&tiny_matrix());
        for t in 0..5_000u64 {
            assert_eq!(
                a.poll(BitInstant::from_bits(t)),
                b.poll(BitInstant::from_bits(t))
            );
        }
    }

    #[test]
    fn cached_earliest_due_matches_a_full_scan() {
        let messages = (0..12u16)
            .map(|i| Message {
                id: CanId::from_raw(0x100 + 0x10 * i),
                period_ms: [1, 2, 5][usize::from(i % 3)],
                dlc: (i % 9) as u8,
                sender: "ecu".into(),
                name: format!("M{i}"),
            })
            .collect();
        let mut app = ReplayApp::for_matrix(&CommMatrix::new("dense", BusSpeed::K500, messages));
        // Four slots due on the same bit from the start.
        for slot in &mut app.slots[3..7] {
            slot.next_due = 40;
        }
        app.earliest = earliest_due(&app.slots);

        // Brute-force reference: the first due slot in matrix order,
        // found by scanning every slot on every poll.
        let mut reference: Vec<(CanFrame, u64, u64)> = app
            .slots
            .iter()
            .map(|s| (s.frame, s.period_bits, s.next_due))
            .collect();
        let mut scan = |now: u64| {
            let slot = reference.iter_mut().find(|s| now >= s.2)?;
            slot.2 += slot.1;
            Some(slot.0)
        };

        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut shared_bits = 0;
        let mut t = 0u64;
        while t < 400_000 {
            // Poll like a node does (up to 8 frames per bit); every bit at
            // first, then at irregular strides so several slots fall due
            // between two polls.
            let now = BitInstant::from_bits(t);
            let mut fired = 0;
            for _ in 0..8 {
                let frame = app.poll(now);
                assert_eq!(app.earliest, app.slots.iter().map(|s| s.next_due).min());
                if let Some(f) = frame {
                    got.push((t, f.id().raw()));
                    fired += 1;
                }
                if let Some(f) = scan(t) {
                    want.push((t, f.id().raw()));
                }
                if frame.is_none() {
                    break;
                }
            }
            if fired > 1 {
                shared_bits += 1;
            }
            t += if t < 50_000 { 1 } else { 1 + t % 97 };
        }
        assert_eq!(got, want);
        assert!(got.len() > 1_000, "{}", got.len());
        assert!(
            shared_bits > 10,
            "{shared_bits} bits with several due slots"
        );
    }

    #[test]
    fn offsets_stagger_start() {
        let mut app = ReplayApp::for_matrix(&tiny_matrix());
        // Not every message fires at t = 0.
        let first = app.poll(BitInstant::from_bits(0));
        let second = app.poll(BitInstant::from_bits(0));
        assert!(first.is_some());
        assert!(second.is_none(), "phases are staggered");
    }
}
