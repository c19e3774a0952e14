//! A complete CAN 2.0A controller: arbitration, transmission, reception,
//! error signalling and fault confinement, stepped one bit time at a time.
//!
//! ## Timing convention
//!
//! The simulator runs a two-phase tick. For every nominal bit time `t`:
//!
//! 1. each controller's [`Controller::tx_level`] is collected and the bus
//!    computes the wired-AND;
//! 2. each controller's [`Controller::on_sample`] processes the resulting
//!    bus level.
//!
//! A decision made while sampling bit `t` therefore first affects the bus
//! at bit `t + 1` — the same one-bit reaction latency a real controller has
//! when it samples at ~70 % of the bit time.

use can_core::bitstream::{stuff_frame, IFS_BITS};
use can_core::errors::CanErrorKind;
use can_core::{counters, packed, BitInstant, CanFrame, ErrorCounters, ErrorState, Level};

use crate::event::{ErrorRole, EventKind};
use crate::parser::{RxEvent, RxParser};

/// Bits in an error flag (active or passive).
pub const ERROR_FLAG_BITS: u8 = 6;

/// Recessive bits in an error delimiter.
pub const ERROR_DELIMITER_BITS: u8 = 8;

/// Extra recessive bits an error-passive node waits after transmitting
/// (suspend transmission).
pub const SUSPEND_BITS: u8 = 8;

/// Configuration of a [`Controller`].
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Whether this controller acknowledges valid frames (dominant ACK
    /// slot). Disable for listen-only taps.
    pub ack_enabled: bool,
    /// Whether failed transmissions are retried (per ISO they always are;
    /// disable for single-shot experiments).
    pub retransmit: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            ack_enabled: true,
            retransmit: true,
        }
    }
}

/// An in-flight transmission.
#[derive(Debug, Clone)]
struct TxJob {
    frame: CanFrame,
    bits: Vec<Level>,
    /// Wire indices (into `bits`) that are stuff bits, sorted.
    stuff_positions: Vec<usize>,
    /// Wire index of the ACK slot.
    ack_index: usize,
    /// Number of bits already driven and sampled.
    index: usize,
    /// `bits` packed as dominant-mask words for the packed kernel.
    words: Vec<u64>,
}

impl TxJob {
    fn new(frame: CanFrame) -> Self {
        let wire = stuff_frame(&frame);
        // ACK slot is the second-to-10th bit from the end:
        // ... CRC delim | ACK slot | ACK delim | EOF(7)
        let ack_index = wire.bits.len() - 9;
        let words = packed::pack_words(&wire.bits);
        TxJob {
            frame,
            bits: wire.bits,
            stuff_positions: wire.stuff_positions,
            ack_index,
            index: 0,
            words,
        }
    }

    fn is_stuff_bit(&self, index: usize) -> bool {
        self.stuff_positions.binary_search(&index).is_ok()
    }
}

/// How a controller participates in one packed stretch (DESIGN.md §11).
///
/// Produced by [`Controller::stretch_plan`] (the `Down` variant is added by
/// the owning node for a crashed MCU) and consumed by the simulator's
/// packed kernel. A planner returning `None` instead means the controller
/// may emit an event, change state class or drive a reactive level at the
/// very next bit, so the simulator must run that bit in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StretchRole {
    /// The node's MCU is down (crash fault): contributes recessive and has
    /// no controller state to advance.
    Down,
    /// Transmitting mid-frame: drives `word` (dominant mask, LSB = the
    /// upcoming wire bit).
    Transmit {
        /// Packed TX levels for the next up-to-64 wire bits.
        word: u64,
    },
    /// Receiving mid-frame with no ACK drive pending: contributes only
    /// recessive; the stretch is additionally capped by a parser dry-run
    /// over the resolved bus word.
    Receive,
    /// Idle / intermission / suspend: contributes recessive and must end
    /// the stretch at the first dominant bus bit (it would join that frame
    /// as a receiver).
    Passive,
    /// Integrating (waiting for 11 recessive bits): contributes recessive;
    /// consumes mixed bus levels word-at-a-time.
    Integrating {
        /// Current count of consecutive recessive bits observed.
        recessive_run: u8,
    },
    /// Bus-off recovery countdown: contributes recessive; consumes mixed
    /// bus levels word-at-a-time.
    BusOff,
}

/// Bits of `bus` (at most `n`) an integrating controller with the given
/// recessive run can consume in one stretch.
///
/// Integration completing is not itself an event, but the first bit *after*
/// completion needs the full Idle logic (frame join on dominant,
/// transmission start with a pending mailbox), so the stretch stops right
/// after the completing bit.
pub(crate) fn integrating_word_cap(recessive_run: u8, bus: u64, n: u32) -> u32 {
    let mut run = recessive_run.min(10);
    for i in 0..n {
        if packed::level_at(bus, i).is_dominant() {
            run = 0;
        } else {
            run += 1;
            if run >= 11 {
                return i + 1;
            }
        }
    }
    n
}

/// Error-signalling sub-state.
#[derive(Debug, Clone)]
struct ErrSig {
    /// Active (dominant) or passive (recessive) flag.
    active: bool,
    /// Active flag: bits left to drive.
    flag_remaining: u8,
    /// Passive flag completion: run of consecutive equal levels observed.
    run_level: Option<Level>,
    run_len: u8,
    phase: ErrPhase,
    /// The node was the transmitter of the destroyed frame.
    was_transmitter: bool,
    /// The node detected the error as a receiver (for the severe REC rule).
    receiver_role: bool,
    /// Severe REC rule applied at most once per flag.
    severe_applied: bool,
    /// Transition to bus-off (instead of intermission) after the delimiter.
    then_bus_off: bool,
}

impl ErrSig {
    fn new(was_transmitter: bool, receiver_role: bool, active: bool) -> Self {
        ErrSig {
            active,
            flag_remaining: ERROR_FLAG_BITS,
            run_level: None,
            run_len: 0,
            phase: ErrPhase::Flag,
            was_transmitter,
            receiver_role,
            severe_applied: false,
            then_bus_off: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrPhase {
    Flag,
    WaitRecessive,
    Delimiter(u8),
}

/// The controller's protocol state. A bit step mutates the current
/// variant in place; a new variant is assigned only when the state class
/// changes (SOF, arbitration loss, error, end of frame or interframe
/// space, bus-off and recovery).
#[derive(Debug)]
enum State {
    /// Waiting for 11 consecutive recessive bits before joining the bus.
    Integrating {
        recessive_run: u8,
    },
    Idle,
    /// Receiving a frame; the frame lives in [`Controller::rx`].
    Receiving,
    Transmitting(TxJob),
    ErrorSignaling(ErrSig),
    Intermission {
        remaining: u8,
        then_suspend: bool,
    },
    Suspend {
        remaining: u8,
    },
    BusOff {
        recessive_run: u8,
        sequences: u32,
    },
}

/// Callbacks surfaced by one [`Controller::on_sample`] step.
///
/// The owning node forwards these to its application and appends them to
/// the simulator event log.
#[derive(Debug, Default)]
pub struct StepOutput {
    /// Protocol events that occurred during this bit.
    pub events: Vec<EventKind>,
    /// A frame received for delivery to the application.
    pub received: Option<CanFrame>,
    /// A frame whose transmission completed successfully.
    pub transmitted: Option<CanFrame>,
}

impl StepOutput {
    /// Resets the output for reuse, keeping the events buffer's capacity
    /// (the simulator recycles one `StepOutput` across every node and bit
    /// to keep the per-bit hot path allocation-free).
    pub fn clear(&mut self) {
        self.events.clear();
        self.received = None;
        self.transmitted = None;
    }
}

/// A full CAN 2.0A controller stepped at bit granularity.
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    counters: ErrorCounters,
    state: State,
    /// Receive parser of the frame on the bus, run by receivers and
    /// transmitters alike (a transmitter losing arbitration continues as
    /// a receiver without missing a bit). Reset at each SOF; meaningless
    /// outside the receiving and transmitting states.
    rx: RxParser,
    /// Transmit mailboxes: at most one pending frame per identifier;
    /// lowest identifier transmits first.
    pending: Vec<CanFrame>,
    /// Drive a dominant ACK during the next bit.
    drive_ack: bool,
    last_reported_state: ErrorState,
}

impl Controller {
    /// Creates a controller in the integrating state (it joins the bus
    /// after 11 recessive bits).
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            config,
            counters: ErrorCounters::new(),
            state: State::Integrating { recessive_run: 0 },
            rx: RxParser::new(),
            pending: Vec::new(),
            drive_ack: false,
            last_reported_state: ErrorState::ErrorActive,
        }
    }

    /// Hardware-style reset: error counters cleared, mailboxes flushed,
    /// back to the integrating state (11 recessive bits before rejoining).
    /// Models an MCU restart after a transient crash.
    pub fn reset(&mut self) {
        self.counters = ErrorCounters::new();
        self.state = State::Integrating { recessive_run: 0 };
        self.pending.clear();
        self.drive_ack = false;
        self.last_reported_state = ErrorState::ErrorActive;
    }

    /// The controller's error counters.
    pub fn counters(&self) -> ErrorCounters {
        self.counters
    }

    /// The fault-confinement state.
    pub fn error_state(&self) -> ErrorState {
        if matches!(self.state, State::BusOff { .. }) {
            ErrorState::BusOff
        } else {
            self.counters.state()
        }
    }

    /// Whether the controller is currently transmitting (and has not lost
    /// arbitration).
    pub fn is_transmitting(&self) -> bool {
        matches!(self.state, State::Transmitting(_))
    }

    /// Whether the controller is in bus-off.
    pub fn is_bus_off(&self) -> bool {
        matches!(self.state, State::BusOff { .. })
    }

    /// Whether the controller considers the bus occupied by a frame or
    /// error condition (used for bus-load accounting).
    pub fn is_busy(&self) -> bool {
        matches!(
            self.state,
            State::Transmitting(_) | State::Receiving | State::ErrorSignaling(_)
        )
    }

    /// Number of frames waiting in transmit mailboxes.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Places a frame in its transmit mailbox (one per identifier; a newer
    /// frame with the same identifier overwrites the older one, like a
    /// hardware mailbox).
    pub fn enqueue(&mut self, frame: CanFrame) {
        if let Some(slot) = self.pending.iter_mut().find(|f| f.id() == frame.id()) {
            *slot = frame;
        } else {
            self.pending.push(frame);
        }
    }

    fn take_highest_priority_pending(&mut self) -> Option<CanFrame> {
        let best = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.id())?
            .0;
        Some(self.pending.swap_remove(best))
    }

    /// Re-queues a frame whose transmission failed, unless the application
    /// has meanwhile posted a newer frame with the same identifier.
    fn requeue(&mut self, frame: CanFrame) {
        if !self.config.retransmit {
            return;
        }
        if !self.pending.iter().any(|f| f.id() == frame.id()) {
            self.pending.push(frame);
        }
    }

    /// The level this controller drives during the upcoming bit time.
    pub fn tx_level(&self) -> Level {
        match &self.state {
            State::Transmitting(tx) => tx.bits[tx.index],
            State::ErrorSignaling(sig) if sig.phase == ErrPhase::Flag && sig.active => {
                Level::Dominant
            }
            State::Receiving if self.drive_ack => Level::Dominant,
            _ => Level::Recessive,
        }
    }

    /// Processes the bus level sampled during the current bit time.
    pub fn on_sample(&mut self, bus: Level, now: BitInstant) -> StepOutput {
        let mut out = StepOutput::default();
        self.on_sample_into(bus, now, &mut out);
        out
    }

    /// [`Controller::on_sample`] writing into a caller-provided output.
    ///
    /// `out` must be [`StepOutput::clear`]ed (or fresh); reusing one
    /// buffer across bits avoids a per-bit allocation on the simulator's
    /// hot path. The controller's behaviour does not depend on `_now`.
    pub fn on_sample_into(&mut self, bus: Level, _now: BitInstant, out: &mut StepOutput) {
        // The ACK drive is one-shot: the bit being processed was the slot.
        self.drive_ack = false;

        match &mut self.state {
            State::Integrating { recessive_run } => {
                if bus.is_dominant() {
                    *recessive_run = 0;
                } else if *recessive_run >= 10 {
                    self.state = State::Idle;
                } else {
                    *recessive_run += 1;
                }
            }
            State::Idle => {
                if bus.is_dominant() {
                    self.join_as_receiver(bus, out);
                } else if !self.pending.is_empty() {
                    self.start_transmission(out);
                }
            }
            State::Receiving => self.sample_receiving(bus, out),
            State::Transmitting(_) => self.sample_transmitting(bus, out),
            State::ErrorSignaling(_) => self.sample_error(bus, out),
            State::Intermission {
                remaining,
                then_suspend,
            } => {
                if bus.is_dominant() {
                    // Another node's SOF (a dominant bit during
                    // intermission is interpreted as a start of frame;
                    // overload frames are not modelled).
                    self.join_as_receiver(bus, out);
                } else if *remaining > 1 {
                    *remaining -= 1;
                } else if *then_suspend {
                    self.state = State::Suspend {
                        remaining: SUSPEND_BITS,
                    };
                } else {
                    self.end_interframe(out);
                }
            }
            State::Suspend { remaining } => {
                if bus.is_dominant() {
                    // Another node started first; we join as receiver and
                    // compete again afterwards (ISO 11898-1 suspend-
                    // transmission rule, central to the paper's
                    // Experiment 5 analysis).
                    self.join_as_receiver(bus, out);
                } else if *remaining > 1 {
                    *remaining -= 1;
                } else {
                    self.end_interframe(out);
                }
            }
            State::BusOff {
                recessive_run,
                sequences,
            } => {
                if bus.is_dominant() {
                    *recessive_run = 0;
                } else {
                    *recessive_run += 1;
                    if u32::from(*recessive_run) == counters::RECOVERY_SEQUENCE_BITS {
                        *recessive_run = 0;
                        *sequences += 1;
                        if *sequences >= counters::RECOVERY_SEQUENCES {
                            self.counters.reset_after_recovery();
                            out.events.push(EventKind::Recovered);
                            self.state = State::Idle;
                        }
                    }
                }
            }
        }

        self.report_state_change(out);
    }

    fn report_state_change(&mut self, out: &mut StepOutput) {
        let state = self.error_state();
        if state != self.last_reported_state {
            self.last_reported_state = state;
            out.events.push(EventKind::ErrorStateChanged { state });
        }
    }

    /// Leaves intermission or suspend: starts the highest-priority pending
    /// frame, or goes idle.
    fn end_interframe(&mut self, out: &mut StepOutput) {
        if self.pending.is_empty() {
            self.state = State::Idle;
        } else {
            self.start_transmission(out);
        }
    }

    fn start_transmission(&mut self, out: &mut StepOutput) {
        let frame = self
            .take_highest_priority_pending()
            .expect("a transmission starts only with a pending frame");
        out.events
            .push(EventKind::TransmissionStarted { id: frame.id() });
        self.rx.reset();
        self.state = State::Transmitting(TxJob::new(frame));
    }

    fn join_as_receiver(&mut self, sof: Level, out: &mut StepOutput) {
        debug_assert!(sof.is_dominant(), "joining requires a dominant SOF");
        self.rx.reset();
        self.state = State::Receiving;
        self.sample_receiving(sof, out);
    }

    fn sample_receiving(&mut self, bus: Level, out: &mut StepOutput) {
        match self.rx.push(bus) {
            RxEvent::Continue => {}
            RxEvent::AckSlotNext => {
                if self.config.ack_enabled {
                    self.drive_ack = true;
                }
            }
            RxEvent::Done(frame) => {
                self.counters.on_receive_success();
                out.events.push(EventKind::FrameReceived { frame });
                out.received = Some(frame);
                self.state = State::Intermission {
                    remaining: IFS_BITS as u8,
                    then_suspend: false,
                };
            }
            RxEvent::Fault(kind) => self.receive_error(kind, out),
        }
    }

    fn receive_error(&mut self, kind: CanErrorKind, out: &mut StepOutput) {
        self.counters.on_receive_error();
        out.events.push(EventKind::ErrorDetected {
            kind,
            role: ErrorRole::Receiver,
        });
        self.state = State::ErrorSignaling(ErrSig::new(false, true, false));
    }

    fn sample_transmitting(&mut self, bus: Level, out: &mut StepOutput) {
        let State::Transmitting(tx) = &mut self.state else {
            unreachable!("sample_transmitting on a non-transmitting controller")
        };
        let sent = tx.bits[tx.index];
        // A transmitter reads its parser only to continue as a receiver
        // after losing arbitration, so the parser stops at the end of the
        // arbitration field (it then stays out of arbitration).
        let in_arbitration = self.rx.in_arbitration();
        let rx_event = if in_arbitration {
            self.rx.push(bus)
        } else {
            RxEvent::Continue
        };

        if sent != bus {
            let frame = tx.frame;
            if in_arbitration && sent.is_recessive() && bus.is_dominant() {
                // Lost arbitration: continue as receiver of the winner.
                out.events
                    .push(EventKind::ArbitrationLost { id: frame.id() });
                self.requeue(frame);
                // The parser already consumed this bit; stay receiving.
                match rx_event {
                    RxEvent::Fault(kind) => self.receive_error(kind, out),
                    _ => self.state = State::Receiving,
                }
                return;
            }
            if tx.index == tx.ack_index && bus.is_dominant() {
                // A receiver acknowledged the frame; not an error.
                tx.index += 1;
                return;
            }
            // Bit or stuff error in our own transmission.
            let kind = if tx.is_stuff_bit(tx.index) {
                CanErrorKind::Stuff
            } else {
                CanErrorKind::Bit
            };
            self.transmit_error(frame, kind, out);
            return;
        }

        // Levels matched.
        if tx.index == tx.ack_index && bus.is_recessive() {
            // Nobody acknowledged.
            let frame = tx.frame;
            self.transmit_error(frame, CanErrorKind::Ack, out);
            return;
        }

        tx.index += 1;
        if tx.index == tx.bits.len() {
            let frame = tx.frame;
            self.counters.on_transmit_success();
            out.events.push(EventKind::TransmissionSucceeded { frame });
            out.transmitted = Some(frame);
            let then_suspend = self.counters.state() == ErrorState::ErrorPassive;
            self.state = State::Intermission {
                remaining: IFS_BITS as u8,
                then_suspend,
            };
        }
    }

    fn transmit_error(&mut self, frame: CanFrame, kind: CanErrorKind, out: &mut StepOutput) {
        // Flag polarity follows the state *before* the increment (paper
        // Fig. 6: the 16th error is still signalled with an active flag).
        let active_before = self.counters.state() == ErrorState::ErrorActive;
        // ISO 11898-1 exception: an error-passive transmitter detecting an
        // ACK error (and no dominant bit during its passive flag) does not
        // increment its TEC. A lone node on a bus therefore never reaches
        // bus-off through missing acknowledgments.
        let new_state = if kind != CanErrorKind::Ack || active_before {
            self.counters.on_transmit_error()
        } else {
            self.counters.state()
        };
        out.events.push(EventKind::ErrorDetected {
            kind,
            role: ErrorRole::Transmitter,
        });
        self.requeue(frame);
        let mut sig = ErrSig::new(true, false, active_before);
        sig.then_bus_off = new_state == ErrorState::BusOff;
        self.state = State::ErrorSignaling(sig);
    }

    fn sample_error(&mut self, bus: Level, out: &mut StepOutput) {
        let State::ErrorSignaling(sig) = &mut self.state else {
            unreachable!("sample_error on a controller that is not signalling")
        };
        match sig.phase {
            ErrPhase::Flag => {
                if sig.active {
                    // We are driving dominant; count our six flag bits.
                    sig.flag_remaining -= 1;
                    if sig.flag_remaining == 0 {
                        sig.phase = ErrPhase::WaitRecessive;
                    }
                } else {
                    // Passive flag: complete after six consecutive equal
                    // levels on the bus (our own recessive or others'
                    // dominant flags).
                    match sig.run_level {
                        Some(level) if level == bus => sig.run_len += 1,
                        _ => {
                            sig.run_level = Some(bus);
                            sig.run_len = 1;
                        }
                    }
                    if sig.run_len >= ERROR_FLAG_BITS {
                        sig.phase = ErrPhase::WaitRecessive;
                    }
                }
            }
            ErrPhase::WaitRecessive => {
                if bus.is_recessive() {
                    // First delimiter bit observed.
                    sig.phase = ErrPhase::Delimiter(ERROR_DELIMITER_BITS - 1);
                } else if sig.receiver_role && !sig.severe_applied {
                    // Someone is still flagging (superposed error flags);
                    // dominant right after our error flag: REC += 8.
                    sig.severe_applied = true;
                    self.counters.on_receive_error_severe();
                }
            }
            ErrPhase::Delimiter(remaining) => {
                if bus.is_dominant() {
                    // A dominant bit inside the delimiter restarts the wait
                    // (superposed late flags; overload handling is out of
                    // scope).
                    sig.phase = ErrPhase::WaitRecessive;
                } else if remaining > 1 {
                    sig.phase = ErrPhase::Delimiter(remaining - 1);
                } else if sig.then_bus_off {
                    out.events.push(EventKind::BusOff);
                    self.state = State::BusOff {
                        recessive_run: 0,
                        sequences: 0,
                    };
                } else {
                    let then_suspend =
                        sig.was_transmitter && self.counters.state() == ErrorState::ErrorPassive;
                    self.state = State::Intermission {
                        remaining: IFS_BITS as u8,
                        then_suspend,
                    };
                }
            }
        }
    }

    /// The earliest bit time at or after `now` at which this controller
    /// may emit an event, drive a non-recessive level or otherwise needs
    /// per-bit processing — **assuming the bus stays recessive and the
    /// mailboxes unchanged until then**. `None` means "never" under those
    /// assumptions (e.g. idle with nothing pending).
    ///
    /// This is the controller's half of the simulator's quiescence
    /// contract: for any horizon `h` returned, feeding the controller
    /// `h - now` recessive samples via [`Controller::advance_idle`] is
    /// exactly equivalent to the per-bit path and produces no events.
    pub fn next_activity(&self, now: BitInstant) -> Option<BitInstant> {
        let pending = !self.pending.is_empty();
        let at = |offset: u64| Some(now + can_core::BitDuration::bits(offset));
        match &self.state {
            // `recessive_run` hits 11 one bit before the offset below, so
            // the controller is Idle at the horizon bit and starts its
            // transmission (event!) right there.
            State::Integrating { recessive_run } => {
                if pending {
                    at(u64::from(11 - (*recessive_run).min(10)))
                } else {
                    None
                }
            }
            State::Idle => {
                if pending {
                    Some(now)
                } else {
                    None
                }
            }
            // Active frame or error handling: every bit matters.
            State::Receiving | State::Transmitting(_) | State::ErrorSignaling(_) => Some(now),
            // Intermission consumes exactly `remaining` recessive samples;
            // the last one either starts a pending transmission (event at
            // `now + remaining - 1`) or chains into suspend-transmission.
            State::Intermission {
                remaining,
                then_suspend,
            } => match (pending, then_suspend) {
                (false, _) => None,
                (true, false) => at(u64::from(remaining - 1)),
                (true, true) => at(u64::from(*remaining) + u64::from(SUSPEND_BITS) - 1),
            },
            State::Suspend { remaining } => {
                if pending {
                    at(u64::from(remaining - 1))
                } else {
                    None
                }
            }
            // Bus-off recovery is a pure countdown on a recessive bus; the
            // `Recovered` event fires at the last of the required samples.
            State::BusOff {
                recessive_run,
                sequences,
            } => {
                let to_sequence =
                    u64::from(counters::RECOVERY_SEQUENCE_BITS) - u64::from(*recessive_run).min(10);
                let full_sequences = u64::from(counters::RECOVERY_SEQUENCES - *sequences - 1);
                at(to_sequence + full_sequences * u64::from(counters::RECOVERY_SEQUENCE_BITS) - 1)
            }
        }
    }

    /// Advances the controller over `bits` consecutive recessive bus
    /// samples in closed form — exactly equivalent to `bits` calls of
    /// `on_sample(Level::Recessive, _)`, given that the window lies inside
    /// a horizon declared by [`Controller::next_activity`] (so no events,
    /// no transmission starts, no recovery completes inside it).
    pub fn advance_idle(&mut self, bits: u64) {
        let mut left = bits;
        while left > 0 {
            match &mut self.state {
                State::Integrating { recessive_run } => {
                    let need = u64::from(11 - (*recessive_run).min(10));
                    if left >= need {
                        left -= need;
                        self.state = State::Idle;
                    } else {
                        *recessive_run += left as u8;
                        return;
                    }
                }
                State::Idle => return,
                State::Intermission {
                    remaining,
                    then_suspend,
                } => {
                    let need = u64::from(*remaining);
                    if left >= need {
                        left -= need;
                        // With a pending frame the declared horizon ends
                        // one bit before the exit sample, so this branch
                        // (and the Idle exit below) only runs when the
                        // exit cannot start a transmission.
                        self.state = if *then_suspend {
                            State::Suspend {
                                remaining: SUSPEND_BITS,
                            }
                        } else {
                            State::Idle
                        };
                    } else {
                        *remaining -= left as u8;
                        return;
                    }
                }
                State::Suspend { remaining } => {
                    let need = u64::from(*remaining);
                    if left >= need {
                        left -= need;
                        self.state = State::Idle;
                    } else {
                        *remaining -= left as u8;
                        return;
                    }
                }
                State::BusOff {
                    recessive_run,
                    sequences,
                } => {
                    // Closed-form countdown; the quiescence horizon
                    // guarantees recovery does not complete in the window.
                    let total = u64::from(*recessive_run) + left;
                    *sequences += (total / u64::from(counters::RECOVERY_SEQUENCE_BITS)) as u32;
                    *recessive_run = (total % u64::from(counters::RECOVERY_SEQUENCE_BITS)) as u8;
                    debug_assert!(*sequences < counters::RECOVERY_SEQUENCES);
                    return;
                }
                State::Receiving | State::Transmitting(_) | State::ErrorSignaling(_) => {
                    unreachable!("advance_idle called on a busy controller")
                }
            }
        }
    }

    /// The controller's half of the packed kernel's stretch negotiation
    /// (DESIGN.md §11).
    ///
    /// Returns how this controller participates in a stretch starting at
    /// `now`, lowering `*cap` (in bits, already ≤ 64) to the last bit it
    /// can cover without per-bit processing, or `None` when the very next
    /// bit needs the lockstep path: a pending ACK drive, error signalling,
    /// idle with a queued frame, the ACK slot or final bit of its own
    /// transmission.
    ///
    /// The plan has no side effects; the simulator may discard it and run
    /// lockstep instead at any point.
    pub(crate) fn stretch_plan(&self, now: BitInstant, cap: &mut u64) -> Option<StretchRole> {
        if self.drive_ack {
            return None; // drives a dominant ACK during the next bit
        }
        let horizon_cap = |cap: &mut u64| -> bool {
            // Caps at the controller's own quiescence horizon, which for
            // the countdown states below is the bit at which an event
            // (transmission start, recovery) could fire assuming an
            // all-recessive bus. Mixed traffic only delays those, so the
            // horizon is a sound stretch bound either way.
            match self.next_activity(now) {
                Some(h) if h <= now => false,
                Some(h) => {
                    *cap = (*cap).min(h.bits() - now.bits());
                    true
                }
                None => true,
            }
        };
        match &self.state {
            State::Receiving => Some(StretchRole::Receive),
            State::Transmitting(tx) => {
                // Stop before the ACK slot (a receiver answers there) and
                // before the final bit (transmit-success event).
                let mut tx_cap = tx.bits.len() - 1 - tx.index;
                if tx.index <= tx.ack_index {
                    tx_cap = tx_cap.min(tx.ack_index - tx.index);
                }
                if tx_cap == 0 {
                    return None;
                }
                *cap = (*cap).min(tx_cap as u64);
                Some(StretchRole::Transmit {
                    word: packed::extract_window(&tx.words, tx.index),
                })
            }
            State::ErrorSignaling(_) => None,
            State::Idle => {
                if self.pending.is_empty() {
                    Some(StretchRole::Passive)
                } else {
                    None // starts its SOF at the next recessive sample
                }
            }
            State::Intermission { .. } | State::Suspend { .. } => {
                horizon_cap(cap).then_some(StretchRole::Passive)
            }
            State::Integrating { recessive_run } => {
                horizon_cap(cap).then_some(StretchRole::Integrating {
                    recessive_run: *recessive_run,
                })
            }
            State::BusOff { .. } => horizon_cap(cap).then_some(StretchRole::BusOff),
        }
    }

    /// Commits `n` event-free bits of the controller's own transmission.
    ///
    /// The resolved bus matched the sent word over the whole window, so
    /// the lockstep path would discard every parser event (the receive
    /// parser of a transmitter only matters on a mismatch), feed the
    /// parser only up to the end of the arbitration field and advance the
    /// wire index — which is exactly what this does.
    pub(crate) fn commit_transmit(&mut self, n: u32) {
        let State::Transmitting(tx) = &mut self.state else {
            unreachable!("commit_transmit on a non-transmitting controller")
        };
        for &bit in &tx.bits[tx.index..tx.index + n as usize] {
            if !self.rx.in_arbitration() {
                break;
            }
            let _ = self.rx.push(bit);
        }
        tx.index += n as usize;
        debug_assert!(tx.index < tx.bits.len());
    }

    /// Dry-runs the receive parser over the low `n` bits of `bus` on the
    /// reusable `scratch` parser: returns how many leading bits produce
    /// `RxEvent::Continue`. The bit that would produce any other event
    /// (ACK-slot announcement, frame completion, fault) is left to the
    /// lockstep path.
    ///
    /// When the return value equals `n`, `scratch` holds the post-stretch
    /// parser state and [`Controller::commit_receive_swap`] can install it
    /// in O(1); otherwise `scratch` has consumed the event bit and must be
    /// discarded.
    pub(crate) fn receive_stretch_cap(&self, bus: u64, n: u32, scratch: &mut RxParser) -> u32 {
        debug_assert!(matches!(self.state, State::Receiving));
        self.rx.copy_into(scratch);
        for i in 0..n {
            if scratch.push(packed::level_at(bus, i)) != RxEvent::Continue {
                return i;
            }
        }
        n
    }

    /// Installs a dry-run parser state produced by
    /// [`Controller::receive_stretch_cap`] (which must have covered exactly
    /// the committed stretch length, event-free).
    pub(crate) fn commit_receive_swap(&mut self, scratch: &mut RxParser) {
        debug_assert!(matches!(self.state, State::Receiving));
        std::mem::swap(&mut self.rx, scratch);
    }

    /// Commits `n` event-free received bits by replaying them into the
    /// live parser (used when the stretch was shortened after this node's
    /// dry run, so the scratch parser overshot).
    pub(crate) fn commit_receive_push(&mut self, bus: u64, n: u32) {
        debug_assert!(matches!(self.state, State::Receiving));
        for i in 0..n {
            let event = self.rx.push(packed::level_at(bus, i));
            debug_assert_eq!(event, RxEvent::Continue);
        }
    }

    /// Commits `n` bits of mixed bus levels for the word-aware countdown
    /// states (integrating, bus-off recovery).
    ///
    /// The stretch caps guarantee neither integration completion followed
    /// by further bits (see [`integrating_word_cap`]) nor recovery
    /// completion can occur inside the window.
    pub(crate) fn commit_passive_word(&mut self, bus: u64, n: u32) {
        match &mut self.state {
            State::Integrating { recessive_run } => {
                let mut run = *recessive_run;
                let mut completed = false;
                for i in 0..n {
                    if packed::level_at(bus, i).is_dominant() {
                        run = 0;
                    } else {
                        run += 1;
                        if run >= 11 {
                            debug_assert_eq!(i, n - 1, "stretch must stop at completion");
                            completed = true;
                            break;
                        }
                    }
                }
                *recessive_run = run;
                if completed {
                    self.state = State::Idle;
                }
            }
            State::BusOff {
                recessive_run,
                sequences,
            } => {
                for i in 0..n {
                    if packed::level_at(bus, i).is_dominant() {
                        *recessive_run = 0;
                    } else {
                        *recessive_run += 1;
                        if u32::from(*recessive_run) == counters::RECOVERY_SEQUENCE_BITS {
                            *recessive_run = 0;
                            *sequences += 1;
                            debug_assert!(*sequences < counters::RECOVERY_SEQUENCES);
                        }
                    }
                }
            }
            _ => unreachable!("commit_passive_word on a non-countdown controller"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use can_core::CanId;

    fn frame(id: u16, data: &[u8]) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
    }

    /// Drives a set of controllers through one tick; returns the bus level.
    fn tick(controllers: &mut [Controller], now: u64) -> (Level, Vec<StepOutput>) {
        let bus = Level::wired_and(controllers.iter().map(|c| c.tx_level()));
        let outs = controllers
            .iter_mut()
            .map(|c| c.on_sample(bus, BitInstant::from_bits(now)))
            .collect();
        (bus, outs)
    }

    fn run(controllers: &mut [Controller], ticks: u64) -> Vec<(u64, usize, EventKind)> {
        let mut events = Vec::new();
        for t in 0..ticks {
            let (_, outs) = tick(controllers, t);
            for (i, out) in outs.into_iter().enumerate() {
                for kind in out.events {
                    events.push((t, i, kind));
                }
            }
        }
        events
    }

    #[test]
    fn lone_frame_is_lost_without_ack_but_node_survives() {
        // A lone transmitter never gets an ACK: ACK errors forever, but the
        // ISO exception caps its TEC at the passive threshold.
        let mut nodes = vec![Controller::new(ControllerConfig::default())];
        nodes[0].enqueue(frame(0x100, &[1, 2]));
        let events = run(&mut nodes, 20_000);
        assert!(events.iter().any(|(_, _, k)| matches!(
            k,
            EventKind::ErrorDetected {
                kind: CanErrorKind::Ack,
                ..
            }
        )));
        assert!(!nodes[0].is_bus_off());
        assert_eq!(nodes[0].error_state(), ErrorState::ErrorPassive);
    }

    #[test]
    fn two_nodes_exchange_a_frame() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        nodes[0].enqueue(frame(0x123, &[0xDE, 0xAD]));
        let events = run(&mut nodes, 400);
        let received = events.iter().find_map(|(_, node, k)| match k {
            EventKind::FrameReceived { frame } => Some((*node, *frame)),
            _ => None,
        });
        assert_eq!(received, Some((1, frame(0x123, &[0xDE, 0xAD]))));
        assert!(
            events
                .iter()
                .any(|(_, node, k)| *node == 0
                    && matches!(k, EventKind::TransmissionSucceeded { .. }))
        );
        // A successful exchange leaves both nodes error-active with clean
        // counters.
        assert_eq!(nodes[0].counters().tec(), 0);
        assert_eq!(nodes[1].counters().rec(), 0);
    }

    #[test]
    fn arbitration_is_won_by_the_lower_id() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        // Enqueue in both before either can start: they SOF simultaneously.
        nodes[0].enqueue(frame(0x300, &[1]));
        nodes[1].enqueue(frame(0x0F0, &[2]));
        let events = run(&mut nodes, 800);

        let lost: Vec<_> = events
            .iter()
            .filter_map(|(t, node, k)| match k {
                EventKind::ArbitrationLost { id } => Some((*t, *node, *id)),
                _ => None,
            })
            .collect();
        assert_eq!(lost.len(), 1, "exactly one arbitration loss: {events:?}");
        assert_eq!(lost[0].1, 0, "node 0 (higher id) must lose");

        let successes: Vec<_> = events
            .iter()
            .filter_map(|(t, node, k)| match k {
                EventKind::TransmissionSucceeded { frame } => Some((*t, *node, frame.id())),
                _ => None,
            })
            .collect();
        assert_eq!(successes.len(), 2, "both frames eventually complete");
        assert_eq!(successes[0].1, 1, "0x0F0 completes first");
        assert_eq!(successes[1].1, 0, "0x300 retries and completes");
    }

    #[test]
    fn both_transmissions_start_simultaneously_and_winner_is_not_errored() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        nodes[0].enqueue(frame(0x005, &[1]));
        nodes[1].enqueue(frame(0x006, &[2]));
        let events = run(&mut nodes, 600);
        // Arbitration must never produce an error.
        assert!(
            !events
                .iter()
                .any(|(_, _, k)| matches!(k, EventKind::ErrorDetected { .. })),
            "arbitration losses are not errors: {events:?}"
        );
        assert_eq!(nodes[0].counters().tec(), 0);
        assert_eq!(nodes[1].counters().tec(), 0);
    }

    #[test]
    fn mailbox_overwrites_same_id() {
        let mut c = Controller::new(ControllerConfig::default());
        c.enqueue(frame(0x10, &[1]));
        c.enqueue(frame(0x10, &[2]));
        assert_eq!(c.pending_count(), 1);
        c.enqueue(frame(0x11, &[3]));
        assert_eq!(c.pending_count(), 2);
    }

    #[test]
    fn integrating_requires_eleven_recessive_bits() {
        let mut c = Controller::new(ControllerConfig::default());
        c.enqueue(frame(0x1, &[]));
        // Interrupt the integration with a dominant bit after 10 recessive.
        for t in 0..10 {
            c.on_sample(Level::Recessive, BitInstant::from_bits(t));
            assert_eq!(c.tx_level(), Level::Recessive);
        }
        c.on_sample(Level::Dominant, BitInstant::from_bits(10));
        // Ten more recessive bits are not enough (run restarted)...
        for t in 11..21 {
            c.on_sample(Level::Recessive, BitInstant::from_bits(t));
        }
        assert_eq!(c.tx_level(), Level::Recessive, "still integrating");
        // ...the eleventh completes integration; it is Idle during that
        // sample and starts its SOF right afterwards.
        c.on_sample(Level::Recessive, BitInstant::from_bits(21));
        c.on_sample(Level::Recessive, BitInstant::from_bits(22));
        assert_eq!(c.tx_level(), Level::Dominant, "SOF after joining");
    }

    #[test]
    fn transmit_success_decrements_tec() {
        let mut nodes = vec![
            Controller::new(ControllerConfig::default()),
            Controller::new(ControllerConfig::default()),
        ];
        // Pre-load some TEC on node 0 by direct counter manipulation (unit
        // scope: we only check the success path decrements).
        for _ in 0..4 {
            nodes[0].counters.on_transmit_error();
        }
        assert_eq!(nodes[0].counters().tec(), 32);
        nodes[0].enqueue(frame(0x055, &[7; 7]));
        run(&mut nodes, 400);
        assert_eq!(nodes[0].counters().tec(), 31);
    }
}
