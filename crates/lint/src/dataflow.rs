//! Dataflow-flavoured rules over the token stream + call graph:
//! `unordered-iter`, `shard-float-order`, `panic-path` and
//! `alloc-in-hot-loop`.
//!
//! These are the determinism guards for the sharded streaming pipeline
//! (DESIGN.md §12–§13). They are deliberately tuned for a near-zero
//! false-positive rate on this workspace's idioms, accepting documented
//! false negatives (e.g. a type the hint pass cannot see is never
//! flagged).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{chain, reach};
use crate::lexer::{matching_close, TokenKind};
use crate::model::{FileModel, FnDef, Hint, Workspace};
use crate::rules::Diagnostic;

/// Streaming hot-path roots for `panic-path` / `alloc-in-hot-loop`
/// reachability, as qualified fn names.
pub const PANIC_ROOTS: &[&str] = &[
    "SignaturePipeline::advance",
    "PostingsIndex::update",
    "merge_score",
    // The tier seam: the streaming detector drives a boxed tier and
    // matcher and sweeps each window pair once; the sketch tier's advance
    // is a hot path of its own (every window folds the delta into the
    // sketches and re-ranks through the LSH-fronted matcher).
    "TieredMasquerade::advance",
    "SelfDistances::sweep",
    "SketchTier::advance_window",
    "AnnIndex::patch",
    // The serve daemon's request plane: a panic here kills the service,
    // so everything reachable from a request or from recovery must
    // degrade through typed errors instead.
    "handle_line",
    "dispatch",
    "DurableState::open",
    "DurableState::ingest_lines",
    "DurableState::advance",
    "DurableState::snapshot_now",
    "accept_loop",
    "serve_connection",
];

/// Files where `unordered-iter` applies: modules whose output order is
/// part of the bit-identical contract.
const UNORDERED_ITER_SCOPE: &[&str] = &[
    "crates/core/src/pipeline.rs",
    "crates/eval/src/index.rs",
    "crates/apps/src/stream.rs",
    "crates/apps/src/masquerade.rs",
];

/// File prefixes inside which the `panic-path` traversal resolves calls.
/// Everything else (cli, datagen, chaos, benches, the lint itself) is off
/// the streaming path; keeping it out stops name-level over-approximation
/// from dragging unrelated fns into the reachable set.
const PANIC_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/eval/src/",
    "crates/graph/src/",
    "crates/apps/src/",
    "crates/serve/src/",
    "crates/sketch/src/",
];

/// Runs all four dataflow rules over the workspace model.
pub fn check_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    unordered_iter(ws, &mut diags);
    shard_float_order(ws, &mut diags);
    let parent = hot_reach(ws);
    panic_path(ws, &parent, &mut diags);
    alloc_in_hot_loop(ws, &parent, &mut diags);
    // A site inside a nested fn is visible from two bodies; keep one.
    let mut seen = BTreeSet::new();
    diags.retain(|d| seen.insert((d.path.clone(), d.line, d.rule, d.message.clone())));
    diags
}

/// Reachability from the streaming roots, restricted to the hot-path
/// crates with the contract module excluded (its assertions are the
/// sanctioned panic mechanism).
fn hot_reach(ws: &Workspace) -> BTreeMap<usize, usize> {
    let roots: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.is_test && PANIC_ROOTS.contains(&d.qualified().as_str()))
        .filter(|(_, d)| in_panic_scope(&ws.files[d.file].src.path))
        .map(|(i, _)| i)
        .collect();
    reach(ws, &roots, &|d: &FnDef| {
        in_panic_scope(&ws.files[d.file].src.path)
    })
}

fn in_panic_scope(path: &str) -> bool {
    PANIC_SCOPE.iter().any(|p| path.starts_with(p)) && !path.ends_with("src/contract.rs")
}

/// rule `unordered-iter`: hash-container iteration feeding an ordered
/// sink (Vec push/extend, digest update, serialized output, collect into
/// a Vec) without an intervening sort. Scoped to the modules whose output
/// bytes are contractual.
fn unordered_iter(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (fi, def) in ws.fns.iter().enumerate() {
        let fm = &ws.files[def.file];
        if def.is_test || !UNORDERED_ITER_SCOPE.contains(&fm.src.path.as_str()) {
            continue;
        }
        let Some((open, close)) = def.body else {
            continue;
        };
        let locals = ws.local_hints(fi);
        let hint = |name: &str| ws.hint_of(&locals, name);
        let toks = &fm.tokens;
        for j in (open + 1)..close {
            if toks[j].kind != TokenKind::Ident || hint(fm.text(j)) != Some(Hint::Hash) {
                continue;
            }
            // The hash ident must actually be iterated: either it ends
            // the `for … in` expression (`for x in &map {`) or it is
            // followed by an iterator-producing method. `map.len()` and
            // friends never count.
            let iterated = match toks.get(j + 1).map(|t| t.text(&fm.src.masked_text)) {
                Some(".") => toks.get(j + 2).is_some_and(|t| {
                    matches!(
                        t.text(&fm.src.masked_text),
                        "iter" | "keys" | "values" | "drain" | "into_iter"
                    )
                }),
                Some("{") => true, // `for x in &map {`
                _ => false,
            };
            if !iterated {
                continue;
            }
            if let Some(d) = hash_iter_sink(ws, fi, j, &locals) {
                diags.push(d);
            }
        }
    }
}

/// Given a hash-iteration at token `j` inside `fns[fi]`, decides whether
/// it reaches an ordered sink without a sort.
fn hash_iter_sink(
    ws: &Workspace,
    fi: usize,
    j: usize,
    locals: &BTreeMap<String, Option<Hint>>,
) -> Option<Diagnostic> {
    let def = &ws.fns[fi];
    let fm = &ws.files[def.file];
    let toks = &fm.tokens;
    let (body_open, body_close) = def.body?;
    let text = |k: usize| fm.text(k);
    let hash_name = text(j).to_owned();

    // Case A: the iteration is a `for` loop head. Find the loop body and
    // scan it for ordered sinks.
    if let Some(body) = for_loop_body(fm, j, body_close) {
        let (lo, lc) = body;
        for k in (lo + 1)..lc {
            // Method sinks: target.push(…) / extend / push_str /
            // digest-style update / write.
            if toks[k].kind == TokenKind::Ident
                && matches!(
                    text(k),
                    "push" | "extend" | "push_str" | "update" | "write" | "write_u64"
                )
                && k >= 2
                && text(k - 1) == "."
                && toks.get(k + 1).is_some_and(|t| t.kind == TokenKind::Open)
            {
                let target = text(k - 2).to_owned();
                // Inserting into another hash container is an unordered
                // sink — fine.
                if ws.hint_of(locals, &target) == Some(Hint::Hash) {
                    continue;
                }
                if sorted_later(fm, &target, k, body_close) {
                    continue;
                }
                return Some(site(
                    "unordered-iter",
                    fm,
                    toks[k].line,
                    format!(
                        "iteration over hash container `{hash_name}` feeds ordered sink \
                         `{target}.{}` without a sort; hash order is nondeterministic",
                        text(k)
                    ),
                ));
            }
            // Serialized-output macro sinks.
            if toks[k].kind == TokenKind::Ident
                && matches!(text(k), "write" | "writeln" | "print" | "println")
                && toks.get(k + 1).is_some_and(|_| text(k + 1) == "!")
            {
                return Some(site(
                    "unordered-iter",
                    fm,
                    toks[k].line,
                    format!(
                        "iteration over hash container `{hash_name}` feeds serialized \
                         output `{}!` ; hash order is nondeterministic",
                        text(k)
                    ),
                ));
            }
        }
        return None;
    }

    // Case B: iterator chain ending in `.collect()` within the same
    // statement.
    let stmt_end = statement_end(fm, j, body_close);
    let collect_at =
        (j..stmt_end).find(|&k| toks[k].kind == TokenKind::Ident && text(k) == "collect")?;
    // Destination: turbofish `collect::<Vec<…>>` or the `let`/assignment
    // target of the statement.
    let turbofish_vec = (collect_at..stmt_end.min(collect_at + 5)).any(|k| text(k) == "Vec");
    let dest = statement_dest(fm, j, body_open);
    let dest_hint = dest.as_deref().and_then(|d| ws.hint_of(locals, d));
    let is_vec_dest = turbofish_vec || dest_hint == Some(Hint::Vec);
    if !is_vec_dest || dest_hint == Some(Hint::Hash) {
        return None;
    }
    if let Some(d) = &dest {
        if sorted_later(fm, d, collect_at, body_close) {
            return None;
        }
    }
    let dest_name = dest.unwrap_or_else(|| "a Vec".to_owned());
    Some(site(
        "unordered-iter",
        fm,
        toks[j].line,
        format!(
            "hash container `{hash_name}` collected into `{dest_name}` without a \
             subsequent sort; hash order is nondeterministic"
        ),
    ))
}

/// If token `j` sits in a `for … in <expr> {` head, returns the loop body
/// brace span.
fn for_loop_body(fm: &FileModel, j: usize, limit: usize) -> Option<(usize, usize)> {
    let toks = &fm.tokens;
    // Backward: an `in` then a `for` at backward-depth 0, within a short
    // window (loop heads are small).
    let mut saw_in = false;
    let mut depth = 0i64;
    let lo = j.saturating_sub(24);
    for k in (lo..j).rev() {
        match toks[k].kind {
            TokenKind::Close => depth += 1,
            TokenKind::Open => {
                depth -= 1;
                if depth < 0 {
                    return None; // left the expression context
                }
            }
            TokenKind::Ident if depth == 0 => match fm.text(k) {
                "in" => saw_in = true,
                "for" if saw_in => {
                    // Forward from j: body `{` at forward-depth 0.
                    let mut d = 0usize;
                    for m in j..limit {
                        match toks[m].kind {
                            TokenKind::Open if d == 0 && fm.text(m) == "{" => {
                                let close = matching_close(toks, &fm.src.masked_text, m)?;
                                return Some((m, close));
                            }
                            TokenKind::Open => d += 1,
                            TokenKind::Close => d = d.saturating_sub(1),
                            TokenKind::Punct if d == 0 && fm.text(m) == ";" => return None,
                            _ => {}
                        }
                    }
                    return None;
                }
                ";" | "{" | "}" => return None,
                _ => {}
            },
            TokenKind::Punct if depth == 0 && matches!(fm.text(k), ";") => return None,
            _ => {}
        }
    }
    None
}

/// Index one past the last token of the statement containing `from`
/// (terminated by `;` at relative depth 0 or the enclosing block end).
fn statement_end(fm: &FileModel, from: usize, limit: usize) -> usize {
    let toks = &fm.tokens;
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(limit).skip(from) {
        match t.kind {
            TokenKind::Open => depth += 1,
            TokenKind::Close => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            TokenKind::Punct if depth == 0 && fm.text(k) == ";" => return k,
            _ => {}
        }
    }
    limit
}

/// The binding/assignment target of the statement containing `from`:
/// `let [mut] name = …` or `name = …`.
fn statement_dest(fm: &FileModel, from: usize, lower: usize) -> Option<String> {
    let toks = &fm.tokens;
    // Backward to the statement start.
    let mut depth = 0i64;
    let mut start = lower;
    for k in (lower..from).rev() {
        match toks[k].kind {
            TokenKind::Close => depth += 1,
            TokenKind::Open => {
                depth -= 1;
                if depth < 0 {
                    start = k + 1;
                    break;
                }
            }
            TokenKind::Punct if depth == 0 && matches!(fm.text(k), ";") => {
                start = k + 1;
                break;
            }
            _ => {}
        }
    }
    let mut k = start;
    if fm.tokens.get(k).is_some_and(|t| t.kind == TokenKind::Ident) && fm.text(k) == "let" {
        k += 1;
        if fm.tokens.get(k).is_some_and(|_| fm.text(k) == "mut") {
            k += 1;
        }
        return toks
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|_| fm.text(k).to_owned());
    }
    // Plain assignment `name = …` (or `name.extend(…)` — name is still
    // the destination).
    toks.get(k)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|_| fm.text(k).to_owned())
}

/// Whether `name` receives a `.sort*()` call anywhere after token `from`
/// in the same fn body.
fn sorted_later(fm: &FileModel, name: &str, from: usize, body_close: usize) -> bool {
    let toks = &fm.tokens;
    for (k, t) in toks.iter().enumerate().take(body_close).skip(from) {
        if t.kind == TokenKind::Ident
            && fm.text(k) == name
            && fm.tokens.get(k + 1).is_some_and(|_| fm.text(k + 1) == ".")
            && fm
                .tokens
                .get(k + 2)
                .is_some_and(|t| t.kind == TokenKind::Ident && fm.text(k + 2).starts_with("sort"))
        {
            return true;
        }
    }
    false
}

/// rule `shard-float-order`: float `+=`-style accumulation inside the
/// shard kernels (`scope_chunks` closures, or a `signature_chunk` impl
/// writing through `self`) into state that outlives the shard. Escaping float sums must be reduced in subject
/// order (DESIGN.md §12).
fn shard_float_order(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (fi, def) in ws.fns.iter().enumerate() {
        if def.is_test {
            continue;
        }
        let fm = &ws.files[def.file];
        let Some((open, close)) = def.body else {
            continue;
        };
        let locals = ws.local_hints(fi);
        let toks = &fm.tokens;
        // Closure-based kernels: every `scope_chunks(…)` argument list
        // in the body.
        for j in (open + 1)..close {
            if toks[j].kind == TokenKind::Ident
                && fm.text(j) == "scope_chunks"
                && toks
                    .get(j + 1)
                    .is_some_and(|t| t.text(&fm.src.masked_text) == "(")
            {
                if let Some(args_close) = matching_close(toks, &fm.src.masked_text, j + 1) {
                    float_accum_escaping(ws, fi, j + 1, args_close, &locals, diags);
                }
            }
        }
        // Per-shard trait kernel: `signature_chunk` writing float state
        // through `self` (which outlives the shard call).
        if def.name == "signature_chunk" {
            for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
                if t.kind == TokenKind::Punct
                    && matches!(fm.text(k), "+=" | "-=")
                    && k >= 3
                    && fm.text(k - 2) == "."
                    && fm.text(k - 3) == "self"
                    && ws.field_hints.get(fm.text(k - 1)) == Some(&Hint::Float)
                {
                    diags.push(site(
                        "shard-float-order",
                        fm,
                        t.line,
                        format!(
                            "float accumulation into `self.{}` inside `signature_chunk`; \
                             state escaping the shard must be reduced in subject order",
                            fm.text(k - 1)
                        ),
                    ));
                }
            }
        }
    }
}

/// Index of the `[`/`(` matching the `Close` token at `close`, scanning
/// backward (never before `lower`).
fn matching_open_back(fm: &FileModel, close: usize, lower: usize) -> Option<usize> {
    let mut depth = 0i64;
    for m in (lower..=close).rev() {
        match fm.tokens[m].kind {
            TokenKind::Close => depth += 1,
            TokenKind::Open => {
                depth -= 1;
                if depth == 0 {
                    return Some(m);
                }
            }
            _ => {}
        }
    }
    None
}

/// Flags `+=`/`-=` on float-hinted targets inside `(lo, hi)` that are not
/// declared inside that span (i.e. they escape the shard closure).
fn float_accum_escaping(
    ws: &Workspace,
    fi: usize,
    lo: usize,
    hi: usize,
    locals: &BTreeMap<String, Option<Hint>>,
    diags: &mut Vec<Diagnostic>,
) {
    let fm = &ws.files[ws.fns[fi].file];
    let toks = &fm.tokens;
    for k in (lo + 1)..hi {
        if !(toks[k].kind == TokenKind::Punct && matches!(fm.text(k), "+=" | "-=")) {
            continue;
        }
        // Identify the target identifier left of the operator: `x +=`,
        // `self.x +=`, `*x +=` all end in an Ident just before the op. A
        // lane-chunked write `lanes[i] +=` ends in `]`, so hop over the
        // matching `[` to the array identifier — the blessed kernel
        // idiom (DESIGN.md §15) is a *closure-local* fixed-width lane
        // array (`let mut lanes = [0.0f64; 4];`); an indexed float
        // target that escapes the shard is the same ordering hazard as
        // a scalar one.
        let Some(mut prev) = k.checked_sub(1) else {
            continue;
        };
        let mut indexed = false;
        if toks[prev].kind == TokenKind::Close && fm.text(prev) == "]" {
            let Some(name_pos) = matching_open_back(fm, prev, lo).and_then(|ob| ob.checked_sub(1))
            else {
                continue;
            };
            prev = name_pos;
            indexed = true;
        }
        if toks[prev].kind != TokenKind::Ident {
            continue;
        }
        let target = fm.text(prev).to_owned();
        let is_self_field = prev >= 2 && fm.text(prev - 1) == "." && fm.text(prev - 2) == "self";
        let float = if is_self_field {
            ws.field_hints.get(&target) == Some(&Hint::Float)
        } else {
            ws.hint_of(locals, &target) == Some(Hint::Float)
                || toks.get(k + 1).is_some_and(|t| t.kind == TokenKind::Float)
        };
        if !float {
            continue;
        }
        // Declared inside the closure span ⇒ shard-local accumulator,
        // which is the correct pattern.
        let declared_inside = (lo..k).any(|m| {
            toks[m].kind == TokenKind::Ident
                && fm.text(m) == "let"
                && toks.get(m + 1).is_some_and(|_| {
                    let mut n = m + 1;
                    if fm.text(n) == "mut" {
                        n += 1;
                    }
                    toks.get(n).is_some_and(|t| t.kind == TokenKind::Ident) && fm.text(n) == target
                })
        });
        if declared_inside && !is_self_field {
            continue;
        }
        diags.push(site(
            "shard-float-order",
            fm,
            toks[k].line,
            format!(
                "float accumulation into `{}{target}{}` inside a shard closure escapes the \
                 shard; reduce per-shard sums in subject order instead",
                if is_self_field { "self." } else { "" },
                if indexed { "[…]" } else { "" }
            ),
        ));
    }
}

/// rule `panic-path`: panicking constructs in fns reachable from the
/// streaming roots, reported with the full call chain.
fn panic_path(ws: &Workspace, parent: &BTreeMap<usize, usize>, diags: &mut Vec<Diagnostic>) {
    for &fi in parent.keys() {
        let def = &ws.fns[fi];
        let fm = &ws.files[def.file];
        let Some((open, close)) = def.body else {
            continue;
        };
        let locals = ws.local_hints(fi);
        let toks = &fm.tokens;
        let via = chain(ws, parent, fi).join(" -> ");
        let mut push = |line: usize, what: String| {
            let mut d = site(
                "panic-path",
                fm,
                line,
                format!("{what} reachable from streaming root via {via}"),
            );
            d.chain = chain(ws, parent, fi);
            diags.push(d);
        };
        for k in (open + 1)..close {
            let t = toks[k];
            match t.kind {
                TokenKind::Ident => {
                    let s = fm.text(k);
                    // `.unwrap()` / `.expect(…)`.
                    if matches!(s, "unwrap" | "expect")
                        && k >= 1
                        && fm.text(k - 1) == "."
                        && toks.get(k + 1).is_some_and(|_| fm.text(k + 1) == "(")
                    {
                        push(t.line, format!("`.{s}()`"));
                    }
                    // Panicking macros (debug_assert* compile out in
                    // release and stay contract-grade).
                    if matches!(
                        s,
                        "panic"
                            | "assert"
                            | "assert_eq"
                            | "assert_ne"
                            | "unreachable"
                            | "todo"
                            | "unimplemented"
                    ) && toks.get(k + 1).is_some_and(|_| fm.text(k + 1) == "!")
                    {
                        push(t.line, format!("`{s}!`"));
                    }
                }
                TokenKind::Open if fm.text(k) == "[" => {
                    // Indexing: `expr[…]` — previous token is an ident or
                    // a closing delimiter. Attributes (`#[…]`) and array
                    // literals (`[0.0; n]`) have other predecessors, and
                    // a full-range `[..]` cannot panic.
                    let indexes = k >= 1
                        && (toks[k - 1].kind == TokenKind::Ident
                            && !is_keyword_like(fm.text(k - 1))
                            || toks[k - 1].kind == TokenKind::Close);
                    if indexes {
                        let inner: Vec<&str> = ((k + 1)..close)
                            .take_while(|&m| toks[m].kind != TokenKind::Close)
                            .map(|m| fm.text(m))
                            .collect();
                        if inner != [".."] {
                            push(t.line, "slice/map indexing `[…]`".to_owned());
                        }
                    }
                }
                TokenKind::Punct if matches!(fm.text(k), "/" | "%") => {
                    // Integer division/modulo panics on a zero divisor.
                    // Only flagged when the divisor is an ident with
                    // integer evidence (literal divisors are non-zero by
                    // inspection; floats never panic). An `as f64`/`as
                    // f32` cast on either side makes the whole division
                    // float, so `count as f64 / union as f64` is exempt.
                    let rhs_int = toks.get(k + 1).is_some_and(|n| {
                        n.kind == TokenKind::Ident
                            && ws.hint_of(&locals, fm.text(k + 1)) == Some(Hint::Int)
                    });
                    let rhs_cast_float = toks.get(k + 2).is_some_and(|_| fm.text(k + 2) == "as")
                        && toks
                            .get(k + 3)
                            .is_some_and(|_| matches!(fm.text(k + 3), "f64" | "f32"));
                    let lhs_float = k >= 1
                        && (toks[k - 1].kind == TokenKind::Float
                            || (toks[k - 1].kind == TokenKind::Ident
                                && (matches!(fm.text(k - 1), "f64" | "f32")
                                    || ws.hint_of(&locals, fm.text(k - 1)) == Some(Hint::Float))));
                    if rhs_int && !lhs_float && !rhs_cast_float {
                        push(
                            t.line,
                            format!("integer `{}` by variable divisor", fm.text(k)),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Idents that precede `[` without indexing (`return [..]`-style and
/// primitive casts like `as [u8; 4]` do not occur, but keywords do:
/// `if cond [ … ]` never parses, yet `in`, `return` … guard anyway).
fn is_keyword_like(s: &str) -> bool {
    matches!(s, "in" | "return" | "as" | "break" | "else" | "match")
}

/// rule `alloc-in-hot-loop`: allocation inside loops of fns reachable
/// from the streaming roots; PR 6's workspace-reuse discipline.
fn alloc_in_hot_loop(ws: &Workspace, parent: &BTreeMap<usize, usize>, diags: &mut Vec<Diagnostic>) {
    for &fi in parent.keys() {
        let def = &ws.fns[fi];
        let fm = &ws.files[def.file];
        let Some((open, close)) = def.body else {
            continue;
        };
        let toks = &fm.tokens;
        let via = chain(ws, parent, fi).join(" -> ");
        // Collect loop body spans.
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for k in (open + 1)..close {
            if toks[k].kind != TokenKind::Ident {
                continue;
            }
            match fm.text(k) {
                "for" => {
                    // Loop body: first `{` at relative depth 0, with an
                    // `in` before it (rules out `impl … for`, which
                    // cannot appear in a body anyway).
                    let mut d = 0usize;
                    let mut saw_in = false;
                    for m in (k + 1)..close {
                        match toks[m].kind {
                            TokenKind::Open if d == 0 && fm.text(m) == "{" => {
                                if saw_in {
                                    if let Some(c) = matching_close(toks, &fm.src.masked_text, m) {
                                        spans.push((m, c));
                                    }
                                }
                                break;
                            }
                            TokenKind::Open => d += 1,
                            TokenKind::Close => d = d.saturating_sub(1),
                            TokenKind::Ident if d == 0 && fm.text(m) == "in" => saw_in = true,
                            TokenKind::Punct if d == 0 && fm.text(m) == ";" => break,
                            _ => {}
                        }
                    }
                }
                "while" | "loop" => {
                    let mut d = 0usize;
                    for m in (k + 1)..close {
                        match toks[m].kind {
                            TokenKind::Open if d == 0 && fm.text(m) == "{" => {
                                if let Some(c) = matching_close(toks, &fm.src.masked_text, m) {
                                    spans.push((m, c));
                                }
                                break;
                            }
                            TokenKind::Open => d += 1,
                            TokenKind::Close => d = d.saturating_sub(1),
                            TokenKind::Punct if d == 0 && fm.text(m) == ";" => break,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        for &(lo, hi) in &spans {
            for k in (lo + 1)..hi {
                if toks[k].kind != TokenKind::Ident {
                    continue;
                }
                let s = fm.text(k);
                let next_is = |txt: &str| toks.get(k + 1).is_some_and(|_| fm.text(k + 1) == txt);
                let alloc = match s {
                    // Constructor allocs: `Vec::new()`, `String::new()`,
                    // `Vec::with_capacity(…)`, `Box::new(…)`.
                    "new" | "with_capacity" | "default" => {
                        k >= 2
                            && fm.text(k - 1) == "::"
                            && matches!(
                                fm.text(k - 2),
                                "Vec" | "String" | "Box" | "FxHashMap" | "FxHashSet" | "VecDeque"
                            )
                            && next_is("(")
                    }
                    // Method allocs on the iterator/string surface.
                    "collect" | "to_vec" | "to_owned" | "to_string" | "clone" => {
                        k >= 1 && fm.text(k - 1) == "." && next_is("(")
                    }
                    // Macro allocs.
                    "vec" | "format" => next_is("!"),
                    _ => false,
                };
                if alloc {
                    diags.push(site(
                        "alloc-in-hot-loop",
                        fm,
                        toks[k].line,
                        format!(
                            "allocation (`{s}`) inside a loop of a hot-path fn ({via}); \
                             hoist or reuse a workspace buffer"
                        ),
                    ));
                }
            }
        }
    }
}

/// Builds a diagnostic at a token site.
fn site(rule: &'static str, fm: &FileModel, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: fm.src.path.clone(),
        line,
        message,
        snippet: fm.src.snippet(line).to_owned(),
        chain: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_on(path: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::build(vec![SourceFile::from_text(path, src)]);
        check_workspace(&ws)
    }

    #[test]
    fn unordered_iter_flags_push_without_sort() {
        let src = "use rustc_hash::FxHashSet;\n\
            fn f(dirty: FxHashSet<u32>) -> Vec<u32> {\n\
                let mut out: Vec<u32> = Vec::new();\n\
                for v in dirty.iter() { out.push(*v); }\n\
                out\n\
            }\n";
        let d = run_on("crates/core/src/pipeline.rs", src);
        assert_eq!(
            d.iter().filter(|d| d.rule == "unordered-iter").count(),
            1,
            "{d:?}"
        );
        // Same file path matters: out of scope ⇒ silent.
        assert!(run_on("crates/cli/src/commands.rs", src).is_empty());
    }

    #[test]
    fn unordered_iter_allows_collect_then_sort() {
        let src = "use rustc_hash::FxHashMap;\n\
            fn f(slot_of: FxHashMap<u32, usize>) -> Vec<u32> {\n\
                let mut members: Vec<u32> = slot_of.keys().copied().collect();\n\
                members.sort_unstable();\n\
                members\n\
            }\n";
        let d = run_on("crates/eval/src/index.rs", src);
        assert!(
            d.iter().all(|d| d.rule != "unordered-iter"),
            "collect-then-sort is the sanctioned idiom: {d:?}"
        );
    }

    #[test]
    fn shard_float_order_flags_escaping_accumulation() {
        let src = "fn f(total: &mut f64, xs: &[f64]) {\n\
                let mut total = *total;\n\
                rayon::scope_chunks(4, 8, |_s, _r| { total += 1.0; });\n\
            }\n";
        let d = run_on("crates/core/src/pipeline.rs", src);
        assert_eq!(
            d.iter().filter(|d| d.rule == "shard-float-order").count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn shard_float_order_allows_local_accumulator() {
        let src = "fn f() {\n\
                rayon::scope_chunks(4, 8, |_s, range| {\n\
                    let mut acc = 0.0;\n\
                    for _ in range { acc += 1.0; }\n\
                });\n\
            }\n";
        let d = run_on("crates/core/src/pipeline.rs", src);
        assert!(d.iter().all(|d| d.rule != "shard-float-order"), "{d:?}");
    }

    #[test]
    fn panic_path_reports_chain() {
        let src = "struct SignaturePipeline;\n\
            impl SignaturePipeline {\n\
                fn advance(&mut self) { helper(); }\n\
            }\n\
            fn helper() { let x: Option<u32> = None; x.unwrap(); }\n";
        let d = run_on("crates/core/src/pipeline.rs", src);
        let hit: Vec<_> = d.iter().filter(|d| d.rule == "panic-path").collect();
        assert_eq!(hit.len(), 1, "{d:?}");
        assert!(hit[0]
            .message
            .contains("SignaturePipeline::advance -> helper"));
        assert_eq!(hit[0].chain, vec!["SignaturePipeline::advance", "helper"]);
    }

    #[test]
    fn panic_path_ignores_unreachable_fns() {
        let src = "fn lonely() { let x: Option<u32> = None; x.unwrap(); }\n";
        let d = run_on("crates/core/src/pipeline.rs", src);
        assert!(d.iter().all(|d| d.rule != "panic-path"), "{d:?}");
    }

    #[test]
    fn alloc_in_hot_loop_fires_inside_loops_only() {
        let src = "struct PostingsIndex;\n\
            impl PostingsIndex {\n\
                fn update(&mut self, n: usize) {\n\
                    let once: Vec<u32> = Vec::new();\n\
                    for _ in 0..n { let v: Vec<u32> = Vec::new(); drop(v); }\n\
                    drop(once);\n\
                }\n\
            }\n";
        let d = run_on("crates/eval/src/index.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "alloc-in-hot-loop").collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert_eq!(hits[0].line, 5);
    }
}
