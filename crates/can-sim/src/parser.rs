//! Streaming receive-path parser.
//!
//! Every active node — receiver *or* transmitter — runs one [`RxParser`]
//! over the bus levels of the current frame. It destuffs, tracks field
//! positions, verifies the CRC and fixed-form bits, and tells the
//! controller when to assert the ACK slot. Transmitters reuse it so that a
//! node losing arbitration can continue as a receiver without missing a
//! bit.

use can_core::bitstream::{Destuffed, Destuffer, FrameField, FrameLayout};
use can_core::crc::Crc15;
use can_core::errors::CanErrorKind;
use can_core::{CanFrame, CanId, Level};

/// Result of feeding one bus bit to the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxEvent {
    /// Nothing notable; keep feeding bits.
    Continue,
    /// The CRC delimiter was just consumed and the CRC matched: the *next*
    /// bit is the ACK slot and a compliant receiver must drive it dominant.
    AckSlotNext,
    /// The frame completed and is valid for this receiver.
    Done(CanFrame),
    /// A protocol error was detected at this bit.
    Fault(CanErrorKind),
}

/// Phase of the streaming parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside the stuffed region (SOF through CRC sequence).
    Stuffed,
    /// Expecting a final stuff bit after the last CRC bit.
    FinalStuff,
    CrcDelim,
    AckSlot,
    AckDelim,
    Eof(u8),
    /// Terminal: `Done` or `Fault` already reported.
    Finished,
}

/// A streaming CAN 2.0A frame parser fed with bus levels, starting at the
/// SOF bit.
#[derive(Debug, Clone)]
pub struct RxParser {
    destuffer: Destuffer,
    unstuffed: Vec<Level>,
    phase: Phase,
    layout: Option<FrameLayout>,
    crc: Crc15,
    crc_received: u16,
    crc_bits_seen: u8,
    crc_ok: bool,
    rtr: bool,
    dlc_raw: u8,
    id: Option<CanId>,
}

impl RxParser {
    /// Creates a parser expecting the SOF as its first bit.
    pub fn new() -> Self {
        Self::with_buffer(Vec::with_capacity(128))
    }

    /// Returns the parser to its initial state (expecting the SOF), keeping
    /// its buffer allocation: a controller resets one parser per frame
    /// instead of allocating a new one.
    pub fn reset(&mut self) {
        *self = Self::with_buffer(std::mem::take(&mut self.unstuffed));
    }

    fn with_buffer(mut unstuffed: Vec<Level>) -> Self {
        unstuffed.clear();
        RxParser {
            destuffer: Destuffer::new(),
            unstuffed,
            phase: Phase::Stuffed,
            layout: None,
            crc: Crc15::new(),
            crc_received: 0,
            crc_bits_seen: 0,
            crc_ok: false,
            rtr: false,
            dlc_raw: 0,
            id: None,
        }
    }

    /// The identifier, once the full 11 ID bits have been parsed.
    pub fn id(&self) -> Option<CanId> {
        self.id
    }

    /// Number of unstuffed bits consumed so far.
    pub fn unstuffed_len(&self) -> usize {
        self.unstuffed.len()
    }

    /// Whether the parser reached a terminal state (done or faulted).
    pub fn is_finished(&self) -> bool {
        self.phase == Phase::Finished
    }

    /// Whether the parser is currently inside the arbitration field
    /// (SOF + identifier + RTR, unstuffed bits 0..=12).
    pub fn in_arbitration(&self) -> bool {
        self.unstuffed.len() <= 12 && matches!(self.phase, Phase::Stuffed)
    }

    /// Copies `self` into `dst`, reusing `dst`'s buffer allocation.
    ///
    /// The packed kernel dry-runs a receiver's parser over each candidate
    /// stretch on a per-node scratch parser; the derived `Clone` would
    /// allocate a fresh `unstuffed` vector every stretch.
    pub(crate) fn copy_into(&self, dst: &mut RxParser) {
        dst.destuffer = self.destuffer.clone();
        dst.unstuffed.clear();
        dst.unstuffed.extend_from_slice(&self.unstuffed);
        dst.phase = self.phase;
        dst.layout = self.layout;
        dst.crc = self.crc;
        dst.crc_received = self.crc_received;
        dst.crc_bits_seen = self.crc_bits_seen;
        dst.crc_ok = self.crc_ok;
        dst.rtr = self.rtr;
        dst.dlc_raw = self.dlc_raw;
        dst.id = self.id;
    }

    /// Feeds one bus level; must not be called after a terminal event.
    pub fn push(&mut self, bit: Level) -> RxEvent {
        match self.phase {
            Phase::Stuffed => self.push_stuffed(bit),
            Phase::FinalStuff => {
                self.phase = Phase::CrcDelim;
                match self.destuffer.push(bit) {
                    Destuffed::Violation => self.fault(CanErrorKind::Stuff),
                    _ => RxEvent::Continue,
                }
            }
            Phase::CrcDelim => {
                if bit.is_dominant() {
                    return self.fault(CanErrorKind::Form);
                }
                self.phase = Phase::AckSlot;
                if self.crc_ok {
                    RxEvent::AckSlotNext
                } else {
                    RxEvent::Continue
                }
            }
            Phase::AckSlot => {
                // Any level is legal here from the receiver's view.
                self.phase = Phase::AckDelim;
                RxEvent::Continue
            }
            Phase::AckDelim => {
                if bit.is_dominant() {
                    return self.fault(CanErrorKind::Form);
                }
                if !self.crc_ok {
                    // A CRC error is signalled only after the ACK delimiter.
                    return self.fault(CanErrorKind::Crc);
                }
                self.phase = Phase::Eof(0);
                RxEvent::Continue
            }
            Phase::Eof(n) => {
                if bit.is_dominant() {
                    if n == 6 {
                        // Dominant at the last EOF bit: tolerated by
                        // receivers (overload condition, not an error);
                        // the frame is already valid.
                        self.phase = Phase::Finished;
                        return RxEvent::Done(self.assemble());
                    }
                    return self.fault(CanErrorKind::Form);
                }
                if n == 6 {
                    self.phase = Phase::Finished;
                    RxEvent::Done(self.assemble())
                } else {
                    self.phase = Phase::Eof(n + 1);
                    RxEvent::Continue
                }
            }
            Phase::Finished => {
                debug_assert!(false, "parser fed after terminal event");
                RxEvent::Continue
            }
        }
    }

    fn fault(&mut self, kind: CanErrorKind) -> RxEvent {
        self.phase = Phase::Finished;
        RxEvent::Fault(kind)
    }

    fn push_stuffed(&mut self, bit: Level) -> RxEvent {
        let destuffed = match self.destuffer.push(bit) {
            Destuffed::Violation => return self.fault(CanErrorKind::Stuff),
            Destuffed::StuffBit => return RxEvent::Continue,
            Destuffed::Bit(b) => b,
        };
        let index = self.unstuffed.len();
        self.unstuffed.push(destuffed);

        // Interpret fields as their last bit arrives.
        match index {
            0 => {
                // SOF must be dominant; joining on a recessive bit is a
                // caller bug, but flag it as a form error defensively.
                if destuffed.is_recessive() {
                    return self.fault(CanErrorKind::Form);
                }
                self.crc.push(destuffed);
            }
            1..=11 => {
                self.crc.push(destuffed);
                if index == 11 {
                    let raw = self.unstuffed[1..12]
                        .iter()
                        .fold(0u16, |acc, l| (acc << 1) | l.to_bit() as u16);
                    self.id = Some(CanId::new(raw).expect("11 bits always fit"));
                }
            }
            12 => {
                self.rtr = destuffed.to_bit();
                self.crc.push(destuffed);
            }
            13 => {
                // IDE: recessive means an extended frame, unsupported here;
                // a compliant 2.0A-only receiver treats it as a form error.
                if destuffed.is_recessive() {
                    return self.fault(CanErrorKind::Form);
                }
                self.crc.push(destuffed);
            }
            14 => {
                self.crc.push(destuffed);
            }
            15..=18 => {
                self.crc.push(destuffed);
                if index == 18 {
                    self.dlc_raw = self.unstuffed[15..19]
                        .iter()
                        .fold(0u8, |acc, l| (acc << 1) | l.to_bit() as u8);
                    let data_bytes = if self.rtr {
                        0
                    } else {
                        self.dlc_raw.min(8) as usize
                    };
                    self.layout = Some(FrameLayout::for_payload(data_bytes));
                }
            }
            _ => {
                let layout = self.layout.expect("layout known after DLC");
                let crc_span = layout.span(FrameField::Crc);
                if index < crc_span.start {
                    // Data field.
                    self.crc.push(destuffed);
                } else {
                    // CRC sequence.
                    self.crc_received = (self.crc_received << 1) | destuffed.to_bit() as u16;
                    self.crc_bits_seen += 1;
                    if self.crc_bits_seen == 15 {
                        self.crc_ok = self.crc.value() == self.crc_received;
                        self.phase = if self.destuffer.expecting_stuff() {
                            Phase::FinalStuff
                        } else {
                            Phase::CrcDelim
                        };
                    }
                }
            }
        }
        RxEvent::Continue
    }

    fn assemble(&self) -> CanFrame {
        let id = self.id.expect("id parsed before completion");
        if self.rtr {
            CanFrame::remote_frame(id, self.dlc_raw.min(8)).expect("validated DLC")
        } else {
            let layout = self.layout.expect("layout known");
            let data_span = layout.span(FrameField::Data);
            let mut data = [0u8; 8];
            let mut len = 0usize;
            for (i, chunk) in self.unstuffed[data_span].chunks(8).enumerate() {
                data[i] = chunk
                    .iter()
                    .fold(0u8, |acc, l| (acc << 1) | l.to_bit() as u8);
                len = i + 1;
            }
            CanFrame::data_frame(id, &data[..len]).expect("validated payload")
        }
    }
}

impl Default for RxParser {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use can_core::bitstream::stuff_frame;

    fn feed(parser: &mut RxParser, bits: &[Level]) -> Vec<RxEvent> {
        bits.iter().map(|&b| parser.push(b)).collect()
    }

    fn frame(id: u16, data: &[u8]) -> CanFrame {
        CanFrame::data_frame(CanId::from_raw(id), data).unwrap()
    }

    #[test]
    fn parses_a_complete_frame() {
        let f = frame(0x173, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        assert_eq!(*events.last().unwrap(), RxEvent::Done(f));
        assert!(parser.is_finished());
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, RxEvent::Done(_)))
                .count(),
            1
        );
    }

    #[test]
    fn reports_ack_slot_one_bit_ahead() {
        let f = frame(0x064, &[0xAA]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        let ack_next_pos = events
            .iter()
            .position(|e| *e == RxEvent::AckSlotNext)
            .expect("valid frame announces the ACK slot");
        // The announcement fires on the CRC delimiter; the ACK slot is the
        // very next wire bit.
        let layout = FrameLayout::of(&f);
        let ack_wire_index = layout.span(FrameField::AckSlot).start + wire.stuff_count();
        assert_eq!(ack_next_pos + 1, ack_wire_index);
    }

    #[test]
    fn id_available_after_arbitration() {
        let f = frame(0x2B3, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        for &bit in &wire.bits {
            parser.push(bit);
            if parser.unstuffed_len() >= 12 {
                break;
            }
        }
        assert_eq!(parser.id(), Some(CanId::from_raw(0x2B3)));
    }

    #[test]
    fn in_arbitration_window() {
        let f = frame(0x555, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        assert!(parser.in_arbitration());
        for &bit in &wire.bits[..14] {
            parser.push(bit);
        }
        // 14 wire bits of 0x555 contain no stuff bits; unstuffed index 13 ⇒
        // IDE consumed ⇒ past arbitration.
        assert!(!parser.in_arbitration());
    }

    #[test]
    fn six_dominant_bits_fault_stuffing() {
        let mut parser = RxParser::new();
        // SOF is dominant; five more dominant bits make six consecutive
        // equal levels — the violation fires on the fifth bit after SOF.
        parser.push(Level::Dominant);
        let mut fault = None;
        for i in 0..6 {
            if let RxEvent::Fault(kind) = parser.push(Level::Dominant) {
                fault = Some((i, kind));
                break;
            }
        }
        let (i, kind) = fault.expect("must fault within six bits");
        assert_eq!(kind, CanErrorKind::Stuff);
        assert_eq!(i, 4, "violation on the sixth consecutive dominant level");
    }

    #[test]
    fn crc_corruption_faults_after_ack_delimiter() {
        let f = frame(0x100, &[0x55, 0x66]);
        let mut wire = stuff_frame(&f);
        // Flip a single data bit without creating a stuff violation:
        // find a bit whose neighbours differ so the flip cannot make a run
        // of six.
        let layout = FrameLayout::of(&f);
        let data_start = layout.span(FrameField::Data).start;
        let mut flipped = None;
        for i in data_start..data_start + 16 {
            let mut probe = wire.bits.clone();
            probe[i] = probe[i].opposite();
            let mut p = RxParser::new();
            let mut events = Vec::new();
            for &b in &probe {
                let e = p.push(b);
                let terminal = matches!(e, RxEvent::Done(_) | RxEvent::Fault(_));
                events.push(e);
                if terminal {
                    break;
                }
            }
            if events.contains(&RxEvent::Fault(CanErrorKind::Crc)) {
                flipped = Some((probe.clone(), events));
                break;
            }
        }
        let (probe, events) = flipped.expect("some flip yields a clean CRC fault");
        let fault_pos = events
            .iter()
            .position(|e| *e == RxEvent::Fault(CanErrorKind::Crc))
            .unwrap();
        // CRC faults are reported at the ACK delimiter, not earlier.
        let ack_delim_unstuffed = layout.span(FrameField::AckDelim).start;
        assert!(
            fault_pos >= ack_delim_unstuffed,
            "CRC fault at {fault_pos} before ACK delimiter"
        );
        wire.bits = probe;
    }

    #[test]
    fn form_fault_on_dominant_crc_delimiter() {
        let f = frame(0x200, &[]);
        let wire = stuff_frame(&f);
        let layout = FrameLayout::of(&f);
        let delim_index = layout.span(FrameField::CrcDelim).start + wire.stuff_count();
        let mut parser = RxParser::new();
        for &bit in &wire.bits[..delim_index] {
            assert!(!matches!(parser.push(bit), RxEvent::Fault(_)));
        }
        assert_eq!(
            parser.push(Level::Dominant),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn dominant_final_eof_bit_is_tolerated() {
        let f = frame(0x300, &[7]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let n = wire.bits.len();
        for &bit in &wire.bits[..n - 1] {
            let e = parser.push(bit);
            assert!(!matches!(e, RxEvent::Fault(_)), "unexpected fault: {e:?}");
        }
        assert_eq!(parser.push(Level::Dominant), RxEvent::Done(f));
    }

    #[test]
    fn dominant_mid_eof_is_a_form_fault() {
        let f = frame(0x300, &[7]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let n = wire.bits.len();
        for &bit in &wire.bits[..n - 4] {
            parser.push(bit);
        }
        assert_eq!(
            parser.push(Level::Dominant),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn extended_frames_fault_at_ide() {
        let f = frame(0x155, &[]);
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        // 0x155 has no stuff bits before unstuffed index 13 (alternating).
        for &bit in &wire.bits[..13] {
            assert!(!matches!(parser.push(bit), RxEvent::Fault(_)));
        }
        assert_eq!(
            parser.push(Level::Recessive),
            RxEvent::Fault(CanErrorKind::Form)
        );
    }

    #[test]
    fn remote_frames_parse() {
        let f = CanFrame::remote_frame(CanId::from_raw(0x412), 3).unwrap();
        let wire = stuff_frame(&f);
        let mut parser = RxParser::new();
        let events = feed(&mut parser, &wire.bits);
        assert_eq!(*events.last().unwrap(), RxEvent::Done(f));
    }

    #[test]
    fn reset_parser_matches_a_fresh_one() {
        let f = frame(0x2A5, &[9, 8, 7]);
        let wire = stuff_frame(&f);
        // Leave the parser mid-frame and faulted, then reuse it.
        let mut parser = RxParser::new();
        feed(&mut parser, &wire.bits[..30]);
        // Dominant bits inside the stuffed region end in a stuff fault.
        while !parser.is_finished() {
            parser.push(Level::Dominant);
        }
        parser.reset();
        assert_eq!(parser.unstuffed_len(), 0);
        assert_eq!(parser.id(), None);
        assert_eq!(
            feed(&mut parser, &wire.bits),
            feed(&mut RxParser::new(), &wire.bits)
        );
    }

    #[test]
    fn all_dlcs_parse() {
        for dlc in 0..=8usize {
            let payload: Vec<u8> = (0..dlc).map(|i| (0x91 * (i + 1)) as u8).collect();
            let f = frame(0x600 + dlc as u16, &payload);
            let wire = stuff_frame(&f);
            let mut parser = RxParser::new();
            let events = feed(&mut parser, &wire.bits);
            assert_eq!(*events.last().unwrap(), RxEvent::Done(f), "dlc {dlc}");
        }
    }
}
