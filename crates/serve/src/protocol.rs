//! The line-delimited JSON request protocol.
//!
//! One request per line, one response line per request. Every response
//! is an object with `"ok": true|false`; failures carry a stable
//! `"error"` kind (the [`ServeError`] taxonomy plus `"unavailable"`
//! while recovery is still running) and a human-readable `"detail"`.
//!
//! Ops: `status`, `ingest`, `advance`, `signature`, `rank`,
//! `masquerade`, `anomaly`, `digest`, `snapshot`, `shutdown`. The
//! grammar is documented in DESIGN.md §14.

use serde_json::{json, Value};

use crate::config::ServeError;
use crate::durable::DurableState;
use crate::state::LastWindow;

/// The server's phase gate: requests arriving before recovery finishes
/// see [`Gate::Recovering`] and get a typed `unavailable` response
/// instead of blocking or crashing.
pub enum Gate<'a> {
    /// Recovery is still replaying the snapshot + WAL.
    Recovering,
    /// The durable state is live (boxed: it is ~1.3 KiB of inline
    /// buffers, far larger than the empty `Recovering` variant).
    Ready(Box<DurableState<'a>>),
}

/// What the connection loop should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Stop the server (a `shutdown` op was acknowledged).
    Shutdown,
}

fn error_response(kind: &str, detail: &str) -> Value {
    json!({"ok": false, "error": kind, "detail": detail})
}

fn serve_error(e: &ServeError) -> Value {
    let kind = match e {
        ServeError::Io(_) => "io",
        ServeError::Corrupt(_) => "corrupt",
        ServeError::Diverged(_) => "diverged",
        ServeError::Config(_) => "config",
        ServeError::Request(_) => "bad-request",
        ServeError::Degraded(_) => "degraded",
    };
    error_response(kind, &e.to_string())
}

fn last_window_map(state: &DurableState<'_>, last: &LastWindow) -> serde_json::Map {
    let detected: Vec<Value> = last
        .detected
        .iter()
        .map(|&(v, u)| json!([state.label_of(v), state.label_of(u)]))
        .collect();
    let mut map = serde_json::Map::new();
    map.insert("ok".to_owned(), json!(true));
    map.insert("window".to_owned(), json!([last.start, last.end]));
    map.insert("changed_edges".to_owned(), json!(last.changed_edges));
    map.insert("dirty".to_owned(), json!(last.dirty));
    map.insert("non_suspects".to_owned(), json!(last.non_suspects));
    map.insert("delta".to_owned(), json!(last.delta));
    map.insert("detected".to_owned(), Value::Array(detected));
    map
}

fn usize_field(request: &Value, field: &str, default: usize) -> Result<usize, Value> {
    match request.get(field) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .filter(|&n| n < (1 << 53))
            .map(|n| n as usize)
            .ok_or_else(|| {
                error_response(
                    "bad-request",
                    &format!("`{field}` must be a non-negative integer"),
                )
            }),
    }
}

fn str_field<'v>(request: &'v Value, field: &str) -> Result<&'v str, Value> {
    request
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| error_response("bad-request", &format!("missing string field `{field}`")))
}

/// Handles one request line against the gate, returning the response
/// line (always valid JSON) and the follow-up action.
pub fn handle_line(gate: &mut Gate<'_>, line: &str) -> (Value, Action) {
    let request = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                error_response("bad-request", &format!("invalid JSON: {e}")),
                Action::Continue,
            )
        }
    };
    let Some(op) = request.get("op").and_then(Value::as_str) else {
        return (
            error_response("bad-request", "missing string field `op`"),
            Action::Continue,
        );
    };
    let state = match gate {
        Gate::Ready(state) => state,
        Gate::Recovering => {
            // Status is answerable in any phase; everything else waits.
            if op == "status" {
                return (json!({"ok": true, "phase": "recovering"}), Action::Continue);
            }
            return (
                error_response("unavailable", "recovery in progress; retry shortly"),
                Action::Continue,
            );
        }
    };
    if op == "shutdown" {
        return (json!({"ok": true, "stopping": true}), Action::Shutdown);
    }
    (dispatch(state, op, &request), Action::Continue)
}

fn dispatch(state: &mut DurableState<'_>, op: &str, request: &Value) -> Value {
    match op {
        "status" => {
            let live = state.live();
            let phase = if state.degraded().is_some() {
                "degraded"
            } else {
                "ready"
            };
            let next = live.windower.next_window();
            let tier_mem = live.det.tier().memory();
            json!({
                "ok": true,
                "phase": phase,
                "degraded_reason": state.degraded(),
                "windows": live.windows,
                "ingested_events": live.ingested_events,
                "pending_events": live.windower.pending_events(),
                "active_edges": live.windower.active_edges(),
                "next_window": next.map(|(s, e)| json!([s, e])),
                "wal_epoch": state.wal_epoch(),
                "subjects": live.subjects.len(),
                "nodes": live.interner.len(),
                "tier": live.det.tier().tier_name(),
                "tier_state_entries": tier_mem.state_entries,
                "tier_state_bytes": tier_mem.state_bytes,
                "matcher_entries": live.det.matcher().memory_entries(),
            })
        }
        "ingest" => match str_field(request, "lines") {
            Err(e) => e,
            Ok(lines) => match state.ingest_lines(lines) {
                Err(e) => serve_error(&e),
                Ok(out) => json!({
                    "ok": true,
                    "accepted": out.accepted,
                    "unknown_label": out.unknown_label,
                    "quarantined": out.quarantined,
                    "repaired": out.repaired,
                    "pending": out.pending,
                }),
            },
        },
        "advance" => match state.advance() {
            Err(e) => serve_error(&e),
            Ok(out) => {
                let mut map = last_window_map(state, &out.last);
                map.insert("digest".to_owned(), json!(format!("{:016x}", out.digest)));
                map.insert("snapshotted".to_owned(), json!(out.snapshotted));
                Value::Object(map)
            }
        },
        "signature" => match str_field(request, "node") {
            Err(e) => e,
            Ok(label) => match state.signature_of(label) {
                Err(e) => serve_error(&e),
                Ok(sig) => {
                    let entries: Vec<Value> = sig
                        .iter()
                        .map(|(u, w)| json!([state.label_of(u), w]))
                        .collect();
                    json!({"ok": true, "node": label, "entries": entries})
                }
            },
        },
        "rank" => {
            let label = match str_field(request, "node") {
                Err(e) => return e,
                Ok(l) => l,
            };
            let top = match usize_field(request, "top", 10) {
                Err(e) => return e,
                Ok(t) => t,
            };
            match state.rank(label, top) {
                Err(e) => serve_error(&e),
                Ok(ranking) => {
                    let entries: Vec<Value> = ranking
                        .entries()
                        .iter()
                        .map(|&(u, d)| json!([state.label_of(u), d]))
                        .collect();
                    json!({"ok": true, "node": label, "ranking": entries})
                }
            }
        }
        "masquerade" => match state.live().last.clone() {
            None => error_response("bad-request", "no window advanced yet"),
            Some(last) => Value::Object(last_window_map(state, &last)),
        },
        "anomaly" => {
            let top = match usize_field(request, "top", 10) {
                Err(e) => return e,
                Ok(t) => t,
            };
            match &state.live().last {
                None => error_response("bad-request", "no window advanced yet"),
                Some(last) => {
                    let scores: Vec<Value> = last
                        .scores
                        .iter()
                        .take(top)
                        .map(|s| json!([state.label_of(s.node), s.score]))
                        .collect();
                    json!({
                        "ok": true,
                        "window": json!([last.start, last.end]),
                        "scores": scores,
                    })
                }
            }
        }
        "digest" => json!({
            "ok": true,
            "digest": format!("{:016x}", state.live().state_digest()),
            "windows": state.live().windows,
        }),
        "snapshot" => match state.snapshot_now() {
            Err(e) => serve_error(&e),
            Ok(epoch) => json!({"ok": true, "wal_epoch": epoch}),
        },
        other => error_response("bad-request", &format!("unknown op `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comsig_core::distance::SHel;
    use comsig_core::scheme::TopTalkers;
    use comsig_graph::{Interner, NodeId};

    use crate::config::ServeConfig;

    fn open_state<'a>(
        scheme: &'a TopTalkers,
        dist: &'a SHel,
        dir: &std::path::Path,
    ) -> Box<DurableState<'a>> {
        let mut interner = Interner::new();
        for i in 0..5 {
            interner.intern(&format!("h{i}"));
        }
        let subjects: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let config = ServeConfig {
            width: 10,
            slide: 10,
            k: 4,
            ..ServeConfig::default()
        };
        Box::new(
            DurableState::open(scheme, dist, config, dir, interner, subjects)
                .unwrap()
                .0,
        )
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("comsig-serve-protocol-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ok(v: &Value) -> bool {
        v["ok"].as_bool() == Some(true)
    }

    #[test]
    fn recovering_gate_returns_typed_unavailable() {
        let mut gate = Gate::Recovering;
        let (resp, action) = handle_line(&mut gate, r#"{"op":"digest"}"#);
        assert_eq!(action, Action::Continue);
        assert_eq!(resp["ok"], Value::Bool(false));
        assert_eq!(resp["error"], "unavailable");
        let (resp, _) = handle_line(&mut gate, r#"{"op":"status"}"#);
        assert!(ok(&resp));
        assert_eq!(resp["phase"], "recovering");
    }

    #[test]
    fn full_session_over_the_dispatcher() {
        let scheme = TopTalkers;
        let dist = SHel;
        let dir = temp_dir("session");
        let mut gate = Gate::Ready(open_state(&scheme, &dist, &dir));

        let (resp, _) = handle_line(&mut gate, r#"{"op":"status"}"#);
        assert!(ok(&resp));
        assert_eq!(resp["phase"], "ready");

        let lines = "1 h0 h1 2.0\\n2 h0 h2 1.0\\n3 h1 h2 4.0\\n11 h0 h1 1.0";
        let (resp, _) = handle_line(
            &mut gate,
            &format!(r#"{{"op":"ingest","lines":"{lines}"}}"#),
        );
        assert!(ok(&resp), "{resp}");
        assert_eq!(resp["accepted"], json!(4.0));

        let (resp, _) = handle_line(&mut gate, r#"{"op":"advance"}"#);
        assert!(ok(&resp), "{resp}");
        assert_eq!(resp["window"], json!([0.0, 10.0]));

        let (resp, _) = handle_line(&mut gate, r#"{"op":"signature","node":"h0"}"#);
        assert!(ok(&resp), "{resp}");
        assert!(!resp["entries"].as_array().unwrap().is_empty());

        let (resp, _) = handle_line(&mut gate, r#"{"op":"rank","node":"h0","top":3}"#);
        assert!(ok(&resp), "{resp}");
        let ranking = resp["ranking"].as_array().unwrap();
        assert_eq!(ranking[0][0], "h0", "self-identification at rank 0");

        let (resp, _) = handle_line(&mut gate, r#"{"op":"masquerade"}"#);
        assert!(ok(&resp), "{resp}");
        let (resp, _) = handle_line(&mut gate, r#"{"op":"anomaly","top":2}"#);
        assert!(ok(&resp), "{resp}");
        assert!(resp["scores"].as_array().unwrap().len() <= 2);

        let (resp, _) = handle_line(&mut gate, r#"{"op":"digest"}"#);
        assert!(ok(&resp));
        assert_eq!(resp["digest"].as_str().unwrap().len(), 16);

        let (resp, action) = handle_line(&mut gate, r#"{"op":"shutdown"}"#);
        assert!(ok(&resp));
        assert_eq!(action, Action::Shutdown);
    }

    #[test]
    fn bad_requests_are_typed_not_panics() {
        let scheme = TopTalkers;
        let dist = SHel;
        let dir = temp_dir("bad");
        let mut gate = Gate::Ready(open_state(&scheme, &dist, &dir));
        for (line, want) in [
            ("not json", "bad-request"),
            (r#"{"no_op":1}"#, "bad-request"),
            (r#"{"op":"warp"}"#, "bad-request"),
            (r#"{"op":"signature"}"#, "bad-request"),
            (r#"{"op":"signature","node":"stranger"}"#, "bad-request"),
            (r#"{"op":"rank","node":"h0","top":-1}"#, "bad-request"),
            (r#"{"op":"masquerade"}"#, "bad-request"),
            (r#"{"op":"ingest","lines":"bogus line"}"#, "bad-request"),
        ] {
            let (resp, action) = handle_line(&mut gate, line);
            assert_eq!(action, Action::Continue);
            assert_eq!(resp["ok"], Value::Bool(false), "{line} -> {resp}");
            assert_eq!(resp["error"].as_str().unwrap(), want, "{line} -> {resp}");
        }
    }
}
