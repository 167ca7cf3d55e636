//! Plain-text edge-list input/output with configurable fault policies.
//!
//! Format (one record per line, whitespace-separated):
//!
//! ```text
//! # comments and blank lines are ignored
//! <time> <src-label> <dst-label> <weight>
//! ```
//!
//! This mirrors the shape of aggregated flow records ("NetFlow for
//! summarizing IP traffic", Section II-B): each line is one aggregated
//! communication observation. Weight may be omitted (defaults to `1`).
//!
//! Real flow feeds are lossy and noisy, so ingestion supports three
//! [`IngestPolicy`] modes: `Strict` (abort on the first malformed
//! record — the historical behaviour), `Quarantine` (skip bad records,
//! recording line numbers and reasons in an [`IngestReport`], up to a
//! configurable budget) and `Repair` (additionally clamp out-of-domain
//! weights into `[0, REPAIR_WEIGHT_CAP]`). See DESIGN.md §8.

use std::io::{BufRead, ErrorKind, Write};

use serde::Serialize;

use crate::edge::EdgeEvent;
use crate::error::GraphError;
use crate::node::Interner;

/// Upper clamp applied to non-finite positive weights under
/// [`IngestPolicy::Repair`]. Large enough to dominate any legitimate
/// aggregated flow volume, small enough that window sums stay finite.
pub const REPAIR_WEIGHT_CAP: f64 = 1e12;

/// How ingestion reacts to malformed records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestPolicy {
    /// Abort on the first malformed record with a typed [`GraphError`].
    /// Byte-identical to the historical `read_events` behaviour.
    Strict,
    /// Skip malformed records, recording each in the [`IngestReport`].
    /// Fails with [`GraphError::TooManyBadRecords`] if more than
    /// `max_bad_fraction · records` records end up quarantined.
    Quarantine {
        /// Bad-record budget as a fraction of attempted records.
        max_bad_fraction: f64,
    },
    /// Like `Quarantine` with an unlimited budget, but weights that are
    /// merely out of domain (negative or infinite) are clamped into
    /// `[0, REPAIR_WEIGHT_CAP]` instead of quarantined. `NaN` carries no
    /// information and is still quarantined.
    Repair,
}

/// One record skipped by a tolerant ingest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Quarantined {
    /// 1-based line number in the input stream.
    pub line: usize,
    /// Why the record was rejected (same wording as the `Strict` error).
    pub reason: String,
}

/// One weight clamped by [`IngestPolicy::Repair`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Repaired {
    /// 1-based line number in the input stream.
    pub line: usize,
    /// The weight as parsed.
    pub original: f64,
    /// The weight after clamping into `[0, REPAIR_WEIGHT_CAP]`.
    pub repaired: f64,
}

/// Accounting of one ingest run: what was read, kept, skipped, patched.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct IngestReport {
    /// Physical lines read, including blanks and comments.
    pub lines_read: usize,
    /// Records attempted (non-blank, non-comment lines).
    pub records: usize,
    /// Events accepted into the output.
    pub events: usize,
    /// Records skipped, with line numbers and reasons.
    pub quarantined: Vec<Quarantined>,
    /// Weights clamped under [`IngestPolicy::Repair`].
    pub repaired: Vec<Repaired>,
}

impl IngestReport {
    /// Fraction of attempted records that were quarantined (0 for an
    /// empty input).
    #[must_use]
    pub fn bad_fraction(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / self.records as f64
        }
    }

    /// Whether the input parsed without any quarantine or repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.repaired.is_empty()
    }
}

/// One record as the input spells it, its labels borrowed from the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<'a> {
    /// Event time.
    pub time: u64,
    /// Source label.
    pub src: &'a str,
    /// Destination label.
    pub dst: &'a str,
    /// Edge weight (after any [`IngestPolicy::Repair`] clamp).
    pub weight: f64,
}

/// The outcome of parsing one trimmed, non-comment line.
enum LineOutcome<'a> {
    /// Fully valid record.
    Good(Record<'a>),
    /// Structure parsed but the weight is non-finite or negative.
    /// `extra_fields` records whether the line also had trailing junk
    /// (checked *after* the weight in `Strict`, so the weight fault wins
    /// there, but `Repair` must still reject the malformed structure).
    BadWeight { raw: Record<'a>, extra_fields: bool },
    /// Structurally malformed; the message matches the `Strict` error.
    Malformed(&'static str),
}

/// Parses one record line, reproducing the historical field-by-field
/// validation order exactly (time, src, dst, weight parse, weight
/// domain, field count).
fn parse_line(trimmed: &str) -> LineOutcome<'_> {
    let mut fields = trimmed.split_whitespace();
    let time: u64 = match fields.next() {
        None => return LineOutcome::Malformed("missing time field"),
        Some(t) => match t.parse() {
            Ok(t) => t,
            Err(_) => return LineOutcome::Malformed("time is not a non-negative integer"),
        },
    };
    let Some(src) = fields.next() else {
        return LineOutcome::Malformed("missing source");
    };
    let Some(dst) = fields.next() else {
        return LineOutcome::Malformed("missing destination");
    };
    let weight: f64 = match fields.next() {
        Some(w) => match w.parse() {
            Ok(w) => w,
            Err(_) => return LineOutcome::Malformed("weight is not a number"),
        },
        None => 1.0,
    };
    let raw = Record {
        time,
        src,
        dst,
        weight,
    };
    if !weight.is_finite() || weight < 0.0 {
        return LineOutcome::BadWeight {
            raw,
            extra_fields: fields.next().is_some(),
        };
    }
    if fields.next().is_some() {
        return LineOutcome::Malformed("too many fields");
    }
    LineOutcome::Good(raw)
}

/// The record core every reader runs on: it classifies one physical line
/// at a time under an [`IngestPolicy`] and keeps the [`IngestReport`], so
/// the quarantine, repair and error semantics exist once whatever the
/// lines come from.
///
/// Feed every physical line in order to [`line`](Self::line), then call
/// [`finish`](Self::finish) for the report and the quarantine budget.
#[derive(Debug)]
struct RecordCore {
    policy: IngestPolicy,
    report: IngestReport,
}

impl RecordCore {
    /// A core at line 0 under `policy`.
    fn new(policy: IngestPolicy) -> Self {
        RecordCore {
            policy,
            report: IngestReport::default(),
        }
    }

    /// Classifies the next physical line (a trailing line terminator is
    /// ignored). Returns the record if it is accepted, and `None` for a
    /// blank line, a comment or a quarantined record.
    ///
    /// # Errors
    /// Under [`IngestPolicy::Strict`], the typed error of a malformed
    /// record, naming its line.
    fn line<'a>(&mut self, line: &'a str) -> Result<Option<Record<'a>>, GraphError> {
        self.report.lines_read += 1;
        let lineno = self.report.lines_read;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        self.report.records += 1;
        let accepted = match (parse_line(trimmed), self.policy) {
            (LineOutcome::Good(raw), _) => raw,
            (LineOutcome::Malformed(message), IngestPolicy::Strict) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: message.to_owned(),
                });
            }
            (LineOutcome::Malformed(message), _) => {
                self.quarantine(message.to_owned());
                return Ok(None);
            }
            (LineOutcome::BadWeight { raw, .. }, IngestPolicy::Strict) => {
                return Err(GraphError::InvalidWeight { weight: raw.weight });
            }
            (LineOutcome::BadWeight { raw, .. }, IngestPolicy::Quarantine { .. }) => {
                self.quarantine(format!(
                    "edge weight {} is not finite and non-negative",
                    raw.weight
                ));
                return Ok(None);
            }
            (
                LineOutcome::BadWeight {
                    extra_fields: true, ..
                },
                IngestPolicy::Repair,
            ) => {
                self.quarantine("too many fields".to_owned());
                return Ok(None);
            }
            (
                LineOutcome::BadWeight {
                    mut raw,
                    extra_fields: false,
                },
                IngestPolicy::Repair,
            ) => {
                if raw.weight.is_nan() {
                    self.quarantine("weight is NaN and cannot be repaired".to_owned());
                    return Ok(None);
                }
                let clamped = raw.weight.clamp(0.0, REPAIR_WEIGHT_CAP);
                self.report.repaired.push(Repaired {
                    line: lineno,
                    original: raw.weight,
                    repaired: clamped,
                });
                raw.weight = clamped;
                raw
            }
        };
        self.report.events += 1;
        Ok(Some(accepted))
    }

    /// Counts a physical line that is not valid UTF-8 as a quarantined
    /// record (the tolerant policies' reading of an undecodable line).
    fn invalid_utf8(&mut self) {
        self.report.lines_read += 1;
        self.report.records += 1;
        self.quarantine("line is not valid UTF-8".to_owned());
    }

    fn quarantine(&mut self, reason: String) {
        self.report.quarantined.push(Quarantined {
            line: self.report.lines_read,
            reason,
        });
    }

    /// Ends the input: the report of every line fed.
    ///
    /// # Errors
    /// [`GraphError::TooManyBadRecords`] when a
    /// [`Quarantine`](IngestPolicy::Quarantine) budget is exhausted.
    fn finish(self) -> Result<IngestReport, GraphError> {
        let report = self.report;
        if let IngestPolicy::Quarantine { max_bad_fraction } = self.policy {
            if report.quarantined.len() as f64 > max_bad_fraction * report.records as f64 {
                return Err(GraphError::TooManyBadRecords {
                    quarantined: report.quarantined.len(),
                    records: report.records,
                    max_bad_fraction,
                });
            }
        }
        Ok(report)
    }
}

/// Parses the lines of `text` under `policy`, handing each accepted
/// record to `accept` in input order, and returns the [`IngestReport`].
/// The labels stay borrowed from `text`, so a caller resolving them
/// against a frozen label space copies nothing. Runs on the same record
/// core as [`read_events_with_policy`], so the two accept the same
/// records, report the same counts and fail with the same errors.
///
/// # Errors
/// Under [`IngestPolicy::Strict`], the typed error of the first
/// malformed record; [`GraphError::TooManyBadRecords`] when a
/// [`Quarantine`](IngestPolicy::Quarantine) budget is exhausted.
pub fn read_records<'a>(
    text: &'a str,
    policy: IngestPolicy,
    mut accept: impl FnMut(Record<'a>),
) -> Result<IngestReport, GraphError> {
    let mut core = RecordCore::new(policy);
    for line in text.lines() {
        if let Some(record) = core.line(line)? {
            accept(record);
        }
    }
    core.finish()
}

/// Parses an event stream from `reader`, interning labels into `interner`.
///
/// Labels are interned in first-appearance order, so parsing is
/// deterministic. Lines starting with `#` and blank lines are skipped.
/// Equivalent to [`read_events_with_policy`] under
/// [`IngestPolicy::Strict`]: the first malformed record aborts the parse
/// with a typed error.
pub fn read_events<R: BufRead>(
    reader: R,
    interner: &mut Interner,
) -> Result<Vec<EdgeEvent>, GraphError> {
    read_events_with_policy(reader, interner, IngestPolicy::Strict).map(|(events, _)| events)
}

/// Parses an event stream under `policy`, returning the surviving events
/// and an [`IngestReport`] accounting for every skipped or patched
/// record.
///
/// Only accepted records intern labels, so the node space (and therefore
/// every downstream id) is a function of the surviving records alone —
/// a quarantined line can never perturb the interning order.
pub fn read_events_with_policy<R: BufRead>(
    mut reader: R,
    interner: &mut Interner,
    policy: IngestPolicy,
) -> Result<(Vec<EdgeEvent>, IngestReport), GraphError> {
    let mut core = RecordCore::new(policy);
    let mut events = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            // A line that is not valid UTF-8 is a per-record fault the
            // tolerant policies can skip (the bytes up to the newline
            // are already consumed); any other I/O error is fatal.
            Err(e) if policy != IngestPolicy::Strict && e.kind() == ErrorKind::InvalidData => {
                core.invalid_utf8();
                continue;
            }
            Err(e) => return Err(e.into()),
        }
        if let Some(record) = core.line(&line)? {
            let src = interner.intern(record.src);
            let dst = interner.intern(record.dst);
            events.push(EdgeEvent {
                time: record.time,
                src,
                dst,
                weight: record.weight,
            });
        }
    }
    let report = core.finish()?;
    Ok((events, report))
}

/// Writes an event stream in the same format `read_events` parses.
pub fn write_events<W: Write>(
    mut writer: W,
    interner: &Interner,
    events: &[EdgeEvent],
) -> Result<(), GraphError> {
    for e in events {
        let src = interner.label(e.src).ok_or(GraphError::NodeOutOfRange {
            index: e.src.index(),
            num_nodes: interner.len(),
        })?;
        let dst = interner.label(e.dst).ok_or(GraphError::NodeOutOfRange {
            index: e.dst.index(),
            num_nodes: interner.len(),
        })?;
        writeln!(writer, "{} {} {} {}", e.time, src, dst, e.weight)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic_stream() {
        let input = "\
# enterprise flows
0 10.0.0.1 93.184.216.34 5
0 10.0.0.2 93.184.216.34

1 10.0.0.1 8.8.8.8
";
        let mut interner = Interner::new();
        let events = read_events(Cursor::new(input), &mut interner).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].weight, 5.0);
        assert_eq!(events[2].weight, 1.0); // default weight
        assert_eq!(interner.len(), 4);
        assert_eq!(events[0].src, events[2].src); // same label, same id
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut interner = Interner::new();
        let err = read_events(Cursor::new("abc 10.0.0.1 x 1"), &mut interner).unwrap_err();
        assert!(err.to_string().contains("line 1"));

        let err = read_events(Cursor::new("0 a"), &mut interner).unwrap_err();
        assert!(err.to_string().contains("destination"));

        let err = read_events(Cursor::new("0 a b 1 extra"), &mut interner).unwrap_err();
        assert!(err.to_string().contains("too many"));

        let err = read_events(Cursor::new("0 a b -2"), &mut interner).unwrap_err();
        assert!(err.to_string().contains("-2"));
    }

    #[test]
    fn round_trip() {
        let input = "0 a b 2\n3 b c 1.5\n";
        let mut interner = Interner::new();
        let events = read_events(Cursor::new(input), &mut interner).unwrap();

        let mut out = Vec::new();
        write_events(&mut out, &interner, &events).unwrap();
        let rendered = String::from_utf8(out).unwrap();

        let mut interner2 = Interner::new();
        let events2 = read_events(Cursor::new(rendered.as_str()), &mut interner2).unwrap();
        assert_eq!(events, events2);
    }

    #[test]
    fn write_rejects_unknown_node() {
        let interner = Interner::new();
        let events = vec![EdgeEvent::unit(
            0,
            crate::NodeId::new(0),
            crate::NodeId::new(1),
        )];
        let err = write_events(Vec::new(), &interner, &events).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    // --- policy machinery ------------------------------------------------

    const MIXED: &str = "\
# header comment
0 a b 2
not-a-time a b 1
1 a c
2 z
3 c d NaN
4 d e -3.5
5 e f 1 junk
6 f g 4
";

    fn quarantine(f: f64) -> IngestPolicy {
        IngestPolicy::Quarantine {
            max_bad_fraction: f,
        }
    }

    #[test]
    fn strict_policy_matches_plain_reader() {
        let mut i1 = Interner::new();
        let e1 = read_events(Cursor::new("0 a b 2\n1 b c\n"), &mut i1).unwrap();
        let mut i2 = Interner::new();
        let (e2, report) = read_events_with_policy(
            Cursor::new("0 a b 2\n1 b c\n"),
            &mut i2,
            IngestPolicy::Strict,
        )
        .unwrap();
        assert_eq!(e1, e2);
        assert_eq!(i1.len(), i2.len());
        assert!(report.is_clean());
        assert_eq!(report.lines_read, 2);
        assert_eq!(report.records, 2);
        assert_eq!(report.events, 2);
    }

    #[test]
    fn quarantine_records_lines_and_reasons() {
        let mut interner = Interner::new();
        let (events, report) =
            read_events_with_policy(Cursor::new(MIXED), &mut interner, quarantine(1.0)).unwrap();
        assert_eq!(events.len(), 3); // lines 2, 4, 9 parse; the rest quarantine
        assert_eq!(report.lines_read, 9);
        assert_eq!(report.records, 8);
        assert_eq!(report.events, 3);
        let lines: Vec<usize> = report.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![3, 5, 6, 7, 8]);
        let reasons: Vec<&str> = report
            .quarantined
            .iter()
            .map(|q| q.reason.as_str())
            .collect();
        assert!(reasons[0].contains("time"));
        assert!(reasons[1].contains("destination"));
        assert!(reasons[2].contains("NaN"));
        assert!(reasons[3].contains("-3.5"));
        assert!(reasons[4].contains("too many"));
        assert!((report.bad_fraction() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_budget_overflow_is_typed() {
        let mut interner = Interner::new();
        let err = read_events_with_policy(Cursor::new(MIXED), &mut interner, quarantine(0.25))
            .unwrap_err();
        match err {
            GraphError::TooManyBadRecords {
                quarantined,
                records,
                ..
            } => {
                assert_eq!(quarantined, 5);
                assert_eq!(records, 8);
            }
            other => panic!("expected TooManyBadRecords, got {other}"),
        }
    }

    #[test]
    fn repair_clamps_weights_and_quarantines_nan() {
        let input = "0 a b -3.5\n1 b c inf\n2 c d NaN\n3 d e 2\n";
        let mut interner = Interner::new();
        let (events, report) =
            read_events_with_policy(Cursor::new(input), &mut interner, IngestPolicy::Repair)
                .unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].weight, 0.0); // -3.5 clamped up
        assert_eq!(events[1].weight, REPAIR_WEIGHT_CAP); // inf clamped down
        assert_eq!(events[2].weight, 2.0); // untouched
        assert_eq!(report.repaired.len(), 2);
        assert_eq!(report.repaired[0].line, 1);
        assert_eq!(report.repaired[0].original, -3.5);
        assert_eq!(report.repaired[1].line, 2);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("NaN"));
        assert!(!report.is_clean());
    }

    #[test]
    fn repair_still_rejects_structural_junk() {
        let input = "0 a b -1 extra\n1 a b 2\n";
        let mut interner = Interner::new();
        let (events, report) =
            read_events_with_policy(Cursor::new(input), &mut interner, IngestPolicy::Repair)
                .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].reason.contains("too many"));
        assert!(report.repaired.is_empty());
    }

    #[test]
    fn quarantined_lines_do_not_intern_labels() {
        // `ghost` appears only on the quarantined line; the surviving
        // node space must not contain it.
        let input = "0 a b 2\nbad ghost b 1\n1 b c 3\n";
        let mut interner = Interner::new();
        let (events, _) =
            read_events_with_policy(Cursor::new(input), &mut interner, quarantine(1.0)).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(interner.len(), 3);
        assert!(interner.get("ghost").is_none());
    }

    #[test]
    fn invalid_utf8_quarantined_not_fatal() {
        let mut bytes = b"0 a b 2\n".to_vec();
        bytes.extend_from_slice(&[0x30, 0x20, 0xFF, 0xFE, 0x20, 0x62, b'\n']); // "0 <junk> b"
        bytes.extend_from_slice(b"1 b c 3\n");

        let mut interner = Interner::new();
        let err = read_events(Cursor::new(bytes.clone()), &mut interner).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "strict mode stays fatal");

        let mut interner = Interner::new();
        let (events, report) =
            read_events_with_policy(Cursor::new(bytes), &mut interner, quarantine(1.0)).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].line, 2);
        assert!(report.quarantined[0].reason.contains("UTF-8"));
    }

    #[test]
    fn empty_input_is_clean() {
        let mut interner = Interner::new();
        let (events, report) =
            read_events_with_policy(Cursor::new(""), &mut interner, quarantine(0.0)).unwrap();
        assert!(events.is_empty());
        assert!(report.is_clean());
        assert_eq!(report.bad_fraction(), 0.0);
        assert_eq!(report.lines_read, 0);
    }
}
