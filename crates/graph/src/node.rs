//! Compact node identifiers and label interning.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHasher};
use serde::{Deserialize, Serialize};

/// A compact identifier for a node in a communication graph.
///
/// Node ids are dense indices (`0..n`) into the node space managed by an
/// [`Interner`]. Using a 32-bit id halves the memory footprint of adjacency
/// arrays relative to `usize` on 64-bit platforms, which matters because a
/// six-week flow collection can contain hundreds of thousands of nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw 32-bit value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Bidirectional mapping between external node labels and dense [`NodeId`]s.
///
/// The paper distinguishes *individuals* (the hidden users) from *labels*
/// (what we observe: IP addresses, account names, phone numbers). The
/// interner manages the observable label space; everything downstream works
/// with dense ids.
///
/// Each label is stored once, concatenated in id order. The lookup index
/// maps a well-mixed 64-bit hash of a label (`label_key`) to its id, and
/// a hit is confirmed by comparing the stored label. Labels share a
/// structured prefix (`10.1.2.*`, `host*`), which a hash whose bucket bits
/// depend on the first bytes would pile into a few probe groups; the
/// finalised key spreads them evenly. A label whose key an earlier label
/// already holds (a true 64-bit collision) lives in a small overflow map.
///
/// ```
/// use comsig_graph::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("10.1.2.3");
/// let b = interner.intern("10.1.2.4");
/// assert_ne!(a, b);
/// assert_eq!(interner.intern("10.1.2.3"), a); // idempotent
/// assert_eq!(interner.label(a), Some("10.1.2.3"));
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every label, concatenated in id order.
    text: String,
    /// `ends[i]` is the end of label `i` in `text`; it starts where
    /// label `i - 1` ends.
    ends: Vec<usize>,
    /// `label_key` → the id of the first label with that key.
    index: FxHashMap<u64, NodeId>,
    /// Labels whose key an earlier label holds.
    overflow: FxHashMap<String, NodeId>,
}

/// The index key of `label`: the Fx hash of its bytes and length, passed
/// through the `fmix64` finaliser so every output bit depends on every
/// input bit. Equal labels have equal keys; the length keeps a label from
/// colliding with itself padded by NUL bytes.
fn label_key(label: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(label.as_bytes());
    h.write_usize(label.len());
    let mut k = h.finish();
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Label `id` of the concatenated `text`, or `None` out of range.
fn label_in<'t>(text: &'t str, ends: &[usize], id: NodeId) -> Option<&'t str> {
    let i = id.index();
    let end = *ends.get(i)?;
    let start = match i.checked_sub(1) {
        Some(prev) => *ends.get(prev)?,
        None => 0,
    };
    text.get(start..end)
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `n` labels.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            text: String::new(),
            ends: Vec::with_capacity(n),
            index: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            overflow: FxHashMap::default(),
        }
    }

    /// Interns `label`, returning its id. Re-interning an existing label
    /// returns the previously assigned id; a new label takes the next id,
    /// so ids follow first-appearance order.
    pub fn intern(&mut self, label: &str) -> NodeId {
        match self.index.entry(label_key(label)) {
            Entry::Vacant(slot) => {
                slot.insert(NodeId::new(self.ends.len()));
            }
            Entry::Occupied(slot) => {
                let id = *slot.get();
                if label_in(&self.text, &self.ends, id) == Some(label) {
                    return id;
                }
                if let Some(&id) = self.overflow.get(label) {
                    return id;
                }
                self.overflow
                    .insert(label.to_owned(), NodeId::new(self.ends.len()));
            }
        }
        let id = NodeId::new(self.ends.len());
        self.text.push_str(label);
        self.ends.push(self.text.len());
        id
    }

    /// Returns the id previously assigned to `label`, if any.
    pub fn get(&self, label: &str) -> Option<NodeId> {
        let &id = self.index.get(&label_key(label))?;
        if self.label(id) == Some(label) {
            Some(id)
        } else {
            self.overflow.get(label).copied()
        }
    }

    /// Returns the label of `id`, if `id` is in range.
    pub fn label(&self, id: NodeId) -> Option<&str> {
        label_in(&self.text, &self.ends, id)
    }

    /// Number of interned labels (the size of the node space `|V|`).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(NodeId, label)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .enumerate()
            .map(|(i, (start, &end))| (NodeId::new(i), self.text.get(start..end).unwrap_or("")))
    }

    /// Pre-registers `n` anonymous nodes named `prefix0..prefix(n-1)`,
    /// returning the id of the first. Useful for synthetic generators that
    /// address nodes by index rather than by meaningful label.
    pub fn intern_range(&mut self, prefix: &str, n: usize) -> NodeId {
        let first = NodeId::new(self.ends.len());
        for i in 0..n {
            self.intern(&format!("{prefix}{i}"));
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.raw(), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(format!("{id:?}"), "n42");
        assert_eq!(format!("{id}"), "42");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("x");
        let b = it.intern("y");
        assert_eq!(it.intern("x"), a);
        assert_eq!(it.intern("y"), b);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn label_lookup() {
        let mut it = Interner::with_capacity(4);
        let a = it.intern("alpha");
        assert_eq!(it.label(a), Some("alpha"));
        assert_eq!(it.get("alpha"), Some(a));
        assert_eq!(it.get("missing"), None);
        assert_eq!(it.label(NodeId::new(99)), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut it = Interner::new();
        it.intern("a");
        it.intern("b");
        it.intern("c");
        let collected: Vec<_> = it.iter().map(|(id, s)| (id.index(), s)).collect();
        assert_eq!(collected, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn intern_range_assigns_dense_block() {
        let mut it = Interner::new();
        it.intern("seed");
        let first = it.intern_range("host", 3);
        assert_eq!(first.index(), 1);
        assert_eq!(it.label(NodeId::new(2)), Some("host1"));
        assert_eq!(it.len(), 4);
    }

    /// Labels `prefix ++ w2` whose Fx state after two 8-byte words equals
    /// that of `base ++ tail`: the Fx round `h' = (rotl(h, 5) ^ w) · K` is
    /// invertible, so for any first word a second word cancels the
    /// difference. Only all-ASCII second words are kept, so every label is
    /// valid UTF-8. Equal state and equal length give equal keys.
    fn fx_collisions(base: &[u8; 8], tail: &[u8; 8], wanted: usize) -> Vec<String> {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let state = |w1: u64| w1.wrapping_mul(K).rotate_left(5);
        let w1 = u64::from_le_bytes(*base);
        let target = state(w1) ^ u64::from_le_bytes(*tail);
        let mut found = Vec::new();
        for a in 0x21..0x7fu8 {
            for b in 0x21..0x7fu8 {
                let mut other = *base;
                other[6] = a;
                other[7] = b;
                let w2 = (target ^ state(u64::from_le_bytes(other))).to_le_bytes();
                if other != *base && w2.iter().all(u8::is_ascii) {
                    let bytes = [&other[..], &w2[..]].concat();
                    found.push(String::from_utf8(bytes).unwrap());
                    if found.len() == wanted {
                        return found;
                    }
                }
            }
        }
        found
    }

    #[test]
    fn colliding_keys_resolve_through_the_overflow() {
        let base = *b"collide:";
        let tail = *b"10.0.0.1";
        let first = String::from_utf8([&base[..], &tail[..]].concat()).unwrap();
        let others = fx_collisions(&base, &tail, 2);
        assert_eq!(others.len(), 2, "collision search came up short");
        let key = label_key(&first);
        for other in &others {
            assert_ne!(*other, first);
            assert_eq!(
                label_key(other),
                key,
                "{other:?} must collide with {first:?}"
            );
        }

        let mut it = Interner::new();
        let pad = it.intern("pad");
        let a = it.intern(&first);
        // The third colliding label is never interned: a lookup that
        // finds the key taken and misses the overflow is a miss.
        assert_eq!(it.get(&others[0]), None);
        let b = it.intern(&others[0]);
        assert_eq!((pad.index(), a.index(), b.index()), (0, 1, 2));
        assert_eq!(it.intern(&first), a);
        assert_eq!(it.intern(&others[0]), b);
        assert_eq!(it.get(&first), Some(a));
        assert_eq!(it.get(&others[0]), Some(b));
        assert_eq!(it.get(&others[1]), None);
        assert_eq!(it.label(a), Some(first.as_str()));
        assert_eq!(it.label(b), Some(others[0].as_str()));
        let c = it.intern(&others[1]);
        assert_eq!(c.index(), 3);
        assert_eq!(it.get(&others[1]), Some(c));
        assert_eq!(it.len(), 4);
        let labels: Vec<&str> = it.iter().map(|(_, l)| l).collect();
        assert_eq!(labels, vec!["pad", &first, &others[0], &others[1]]);
    }

    #[test]
    fn nul_padding_does_not_collide() {
        assert_ne!(label_key("a"), label_key("a\0"));
        let mut it = Interner::new();
        let a = it.intern("a");
        let b = it.intern("a\0");
        assert_ne!(a, b);
        assert_eq!(it.get("a\0\0"), None);
    }

    #[test]
    fn empty_label_round_trips() {
        let mut it = Interner::new();
        let e = it.intern("");
        let x = it.intern("x");
        assert_eq!(it.label(e), Some(""));
        assert_eq!(it.get(""), Some(e));
        assert_eq!(it.label(x), Some("x"));
    }

    #[test]
    fn empty_interner() {
        let it = Interner::new();
        assert!(it.is_empty());
        assert_eq!(it.len(), 0);
    }
}
