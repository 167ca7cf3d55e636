//! The production in-process path: a `LiveState` fed the same inputs as
//! the served run, used as the correctness oracle for every served
//! answer and for the traced run's composed layers.

use std::io::Cursor;

use comsig_core::distance::BatchDistance;
use comsig_core::pipeline::DeltaScheme;
use comsig_graph::io::{read_events_with_policy, IngestReport};
use comsig_graph::{EdgeEvent, IngestPolicy, Interner, NodeId, WindowDelta};
use comsig_serve::state::{subject_sources, LastWindow, LiveState};
use comsig_serve::ServeConfig;
use serde_json::Value;

use crate::gen::Request;

/// The frozen label space and subject population of a seed file,
/// derived exactly as `comsig serve` derives them.
#[derive(Debug, Clone)]
pub struct Genesis {
    /// Labels interned in seed-file order.
    pub interner: Interner,
    /// Every source label, sorted.
    pub subjects: Vec<NodeId>,
}

impl Genesis {
    /// Parses the seed-events file text.
    ///
    /// # Errors
    /// When the seed file does not parse under the strict policy.
    pub fn parse(seed_file: &str) -> Result<Genesis, String> {
        let mut interner = Interner::new();
        let (events, _) = read_events_with_policy(
            Cursor::new(seed_file.as_bytes()),
            &mut interner,
            IngestPolicy::Strict,
        )
        .map_err(|e| format!("seed file: {e}"))?;
        let subjects = subject_sources(&events);
        Ok(Genesis { interner, subjects })
    }
}

/// Parses one ingest batch exactly as `DurableState::ingest_lines` does:
/// a scratch interner, then a remap into the frozen label space. The
/// workloads never send an unknown label, so one is an error here.
///
/// # Errors
/// On a batch the strict policy rejects or an unknown label.
pub fn parse_batch(
    text: &str,
    interner: &Interner,
) -> Result<(Vec<EdgeEvent>, IngestReport), String> {
    let mut scratch = Interner::new();
    let (events, report) = read_events_with_policy(
        Cursor::new(text.as_bytes()),
        &mut scratch,
        IngestPolicy::Strict,
    )
    .map_err(|e| format!("ingest batch: {e}"))?;
    let accepted = remap(&events, &scratch, interner)?;
    Ok((accepted, report))
}

/// Maps events from a scratch label space into the frozen one.
///
/// # Errors
/// On a label outside the frozen space.
pub fn remap(
    events: &[EdgeEvent],
    scratch: &Interner,
    interner: &Interner,
) -> Result<Vec<EdgeEvent>, String> {
    let lookup = |v: NodeId| {
        scratch
            .label(v)
            .and_then(|l| interner.get(l))
            .ok_or_else(|| format!("ingest batch: label {v} outside the seed label space"))
    };
    events
        .iter()
        .map(|e| {
            Ok(EdgeEvent {
                time: e.time,
                src: lookup(e.src)?,
                dst: lookup(e.dst)?,
                weight: e.weight,
            })
        })
        .collect()
}

/// A production `LiveState` driven request by request.
pub struct Replay<'a> {
    /// The production state.
    pub live: LiveState<'a>,
    dist: &'a dyn BatchDistance,
}

impl<'a> Replay<'a> {
    /// The genesis state for `config`.
    ///
    /// # Errors
    /// When the configuration is rejected at genesis.
    pub fn new(
        scheme: &'a dyn DeltaScheme,
        dist: &'a dyn BatchDistance,
        config: &ServeConfig,
        genesis: &Genesis,
    ) -> Result<Self, String> {
        let live = LiveState::genesis(
            scheme,
            config,
            genesis.interner.clone(),
            genesis.subjects.clone(),
        )
        .map_err(|e| format!("genesis: {e}"))?;
        Ok(Replay { live, dist })
    }

    /// Pushes already-parsed events, as an acknowledged ingest does.
    pub fn push(&mut self, events: &[EdgeEvent]) {
        self.live.push_events(events);
    }

    /// Parses and pushes one batch; returns the accepted count.
    ///
    /// # Errors
    /// As [`parse_batch`].
    pub fn ingest(&mut self, text: &str) -> Result<u64, String> {
        let (events, _) = parse_batch(text, &self.live.interner)?;
        self.push(&events);
        Ok(events.len() as u64)
    }

    /// Advances one window; returns the delta and the post-advance
    /// state digest.
    pub fn advance(&mut self) -> (WindowDelta, u64) {
        let delta = self.live.advance_once(self.dist);
        (delta, self.live.state_digest())
    }

    /// The last advance's query-visible outputs.
    ///
    /// # Errors
    /// Before the first advance.
    pub fn last(&self) -> Result<&LastWindow, String> {
        self.live
            .last
            .as_ref()
            .ok_or_else(|| "no window advanced yet".to_owned())
    }

    fn label(&self, v: NodeId) -> &str {
        self.live.interner.label(v).unwrap_or("?")
    }

    fn subject(&self, label: &str) -> Result<NodeId, String> {
        self.live
            .interner
            .get(label)
            .filter(|v| self.live.det.signatures().get(*v).is_some())
            .ok_or_else(|| format!("`{label}` is not a subject"))
    }

    /// The production ranking of `label` (labels and distances).
    ///
    /// # Errors
    /// For a label that is not a subject.
    pub fn rank(&self, label: &str, top: usize) -> Result<Vec<(String, f64)>, String> {
        let v = self.subject(label)?;
        let sig = self
            .live
            .det
            .signatures()
            .get(v)
            .ok_or_else(|| format!("`{label}` has no signature"))?;
        Ok(self
            .live
            .det
            .rank_top_l(self.dist, sig, top)
            .entries()
            .iter()
            .map(|&(u, d)| (self.label(u).to_owned(), d))
            .collect())
    }

    /// The production signature of `label` (labels and weights).
    ///
    /// # Errors
    /// For a label that is not a subject.
    pub fn signature(&self, label: &str) -> Result<Vec<(String, f64)>, String> {
        let v = self.subject(label)?;
        let sig = self
            .live
            .det
            .signatures()
            .get(v)
            .ok_or_else(|| format!("`{label}` has no signature"))?;
        Ok(sig
            .iter()
            .map(|(u, w)| (self.label(u).to_owned(), w))
            .collect())
    }

    /// Checks one served response against this replay, applying the
    /// request to the replay first when it mutates state.
    ///
    /// # Errors
    /// Names the first field that disagrees.
    pub fn check(&mut self, request: &Request, response: &Value) -> Result<(), String> {
        match request {
            Request::Ingest { text, .. } => {
                let accepted = self.ingest(text)?;
                expect_u64(response, "accepted", accepted)
            }
            Request::Advance => {
                let (_, digest) = self.advance();
                let want = format!("{digest:016x}");
                let got = response.get("digest").and_then(Value::as_str);
                if got != Some(want.as_str()) {
                    return Err(format!(
                        "advance digest: served {got:?}, in-process replay {want}"
                    ));
                }
                let last = self.last()?.clone();
                expect_u64(response, "changed_edges", last.changed_edges)?;
                expect_u64(response, "dirty", last.dirty)?;
                expect_u64(response, "non_suspects", last.non_suspects)?;
                let delta = response.get("delta").and_then(Value::as_f64);
                if delta.map(f64::to_bits) != Some(last.delta.to_bits()) {
                    return Err(format!(
                        "advance delta: served {delta:?}, replay {}",
                        last.delta
                    ));
                }
                let want: Vec<(String, String)> = last
                    .detected
                    .iter()
                    .map(|&(v, u)| (self.label(v).to_owned(), self.label(u).to_owned()))
                    .collect();
                let got: Option<Vec<(String, String)>> = response
                    .get("detected")
                    .and_then(Value::as_array)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|p| {
                                let p = p.as_array()?;
                                Some((
                                    p.first()?.as_str()?.to_owned(),
                                    p.get(1)?.as_str()?.to_owned(),
                                ))
                            })
                            .collect()
                    });
                if got.as_ref() != Some(&want) {
                    return Err("advance detected pairs differ from the replay".to_owned());
                }
                Ok(())
            }
            Request::Rank(label) => {
                let want = self.rank(label, crate::gen::RANK_TOP)?;
                expect_pairs(response, "ranking", &want, label)
            }
            Request::Signature(label) => {
                let want = self.signature(label)?;
                expect_pairs(response, "entries", &want, label)
            }
        }
    }
}

fn expect_u64(response: &Value, field: &str, want: u64) -> Result<(), String> {
    let got = response.get(field).and_then(Value::as_u64);
    if got == Some(want) {
        Ok(())
    } else {
        Err(format!(
            "`{field}`: served {got:?}, in-process replay {want}"
        ))
    }
}

fn expect_pairs(
    response: &Value,
    field: &str,
    want: &[(String, f64)],
    node: &str,
) -> Result<(), String> {
    let got: Option<Vec<(String, f64)>> = response.get(field).and_then(Value::as_array).map(|es| {
        es.iter()
            .filter_map(|e| {
                let e = e.as_array()?;
                Some((e.first()?.as_str()?.to_owned(), e.get(1)?.as_f64()?))
            })
            .collect()
    });
    let same = got.as_ref().is_some_and(|got| {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    });
    if same {
        Ok(())
    } else {
        Err(format!(
            "`{field}` for {node}: served {got:?}, in-process replay {want:?}"
        ))
    }
}
