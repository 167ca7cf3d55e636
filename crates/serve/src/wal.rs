//! WAL record codec for the service log.
//!
//! The byte-level framing (the versioned header line, then
//! `[u32 len][u64 digest][payload]` records, torn-tail truncation) lives
//! in [`comsig_core::persist`]; this module defines
//! what goes **inside** a payload. Two record types:
//!
//! * [`WalRecord::Events`] — an accepted event batch, in push order,
//!   appended and fsynced *before* the events enter the windower;
//! * [`WalRecord::Advance`] — the [`WindowDelta`] one advance emitted
//!   plus the post-apply [`state digest`](crate::state::LiveState::state_digest),
//!   appended and fsynced *before* the advance is acknowledged.
//!
//! Recovery replays `Events` by re-pushing and `Advance` by re-running
//! `windower.advance()`, verifying the recomputed delta and digest
//! against the logged ones — deterministic replay is the correctness
//! claim, and the log carries enough evidence to check it.

use comsig_core::persist::{self, CodecError, Dec, Enc};
use comsig_graph::{EdgeEvent, NodeId, WindowDelta};

/// Payload tag for an accepted event batch.
const TAG_EVENTS: u8 = 1;
/// Payload tag for a window advance.
const TAG_ADVANCE: u8 = 2;

/// One logical record of the service WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An accepted event batch, in push order.
    Events(Vec<EdgeEvent>),
    /// One window advance: the emitted delta and the state digest
    /// observed after applying it.
    Advance {
        /// The delta `windower.advance()` produced.
        delta: WindowDelta,
        /// [`LiveState::state_digest`](crate::state::LiveState::state_digest)
        /// after the delta was applied.
        digest: u64,
    },
}

/// Encodes a record payload (framing is the caller's job).
#[must_use]
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut enc = Enc::new();
    match record {
        WalRecord::Events(events) => {
            enc.u8(TAG_EVENTS);
            enc.len(events.len());
            for e in events {
                enc.u64(e.time);
                enc.u32(e.src.raw());
                enc.u32(e.dst.raw());
                enc.f64(e.weight);
            }
        }
        WalRecord::Advance { delta, digest } => {
            enc.u8(TAG_ADVANCE);
            persist::encode_delta(&mut enc, delta);
            enc.u64(*digest);
        }
    }
    enc.into_bytes()
}

/// Decodes one record payload, rejecting trailing bytes.
///
/// # Errors
/// [`CodecError`] on truncation, an unknown tag, or a delta violating
/// its producer invariants.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut dec = Dec::new(payload);
    let record = match dec.u8("wal.tag")? {
        TAG_EVENTS => {
            let n = dec.seq_len(24, "wal.events")?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                let time = dec.u64("event.time")?;
                let src = NodeId::new(dec.u32("event.src")? as usize);
                let dst = NodeId::new(dec.u32("event.dst")? as usize);
                let weight = dec.f64("event.weight")?;
                events.push(EdgeEvent {
                    time,
                    src,
                    dst,
                    weight,
                });
            }
            WalRecord::Events(events)
        }
        TAG_ADVANCE => {
            let delta = persist::decode_delta(&mut dec)?;
            let digest = dec.u64("wal.digest")?;
            WalRecord::Advance { delta, digest }
        }
        tag => return Err(CodecError::from(format!("unknown WAL record tag {tag}"))),
    };
    dec.finish("wal record")?;
    Ok(record)
}

/// Byte-equality of two deltas under the canonical encoding — the
/// replay check (`PartialEq` on `f64` fields would treat `-0.0 == 0.0`
/// and `NaN != NaN`; the bit encoding is the identity that matters).
#[must_use]
pub fn deltas_bit_equal(a: &WindowDelta, b: &WindowDelta) -> bool {
    let mut ea = Enc::new();
    persist::encode_delta(&mut ea, a);
    let mut eb = Enc::new();
    persist::encode_delta(&mut eb, b);
    ea.into_bytes() == eb.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn records_round_trip_byte_exactly() {
        let events = WalRecord::Events(vec![
            EdgeEvent {
                time: 3,
                src: n(0),
                dst: n(1),
                weight: 0.25,
            },
            EdgeEvent {
                time: 4,
                src: n(1),
                dst: n(2),
                weight: 1e9,
            },
        ]);
        let advance = WalRecord::Advance {
            delta: WindowDelta {
                start: 10,
                end: 20,
                changes: vec![],
            },
            digest: 0xdead_beef_dead_beef,
        };
        for record in [events, advance] {
            let bytes = encode_record(&record);
            let back = decode_record(&bytes).unwrap();
            assert_eq!(back, record);
            assert_eq!(encode_record(&back), bytes);
        }
    }

    #[test]
    fn corrupt_payloads_are_typed_errors() {
        let bytes = encode_record(&WalRecord::Events(vec![EdgeEvent {
            time: 1,
            src: n(0),
            dst: n(1),
            weight: 1.0,
        }]));
        assert!(decode_record(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_record(&[9]).is_err(), "unknown tag");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).is_err(), "trailing bytes");
    }
}
