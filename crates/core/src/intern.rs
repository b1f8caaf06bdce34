//! String interning: dense `u32` ids for operation and event names.
//!
//! The overlap sweep ([`crate::overlap`]) and the v2 trace codec
//! ([`crate::store`]) both replace repeated `Arc<str>` comparisons and
//! allocations with integer ids. An [`Interner`] assigns ids densely in
//! first-intern order, so they can index flat arrays directly — the
//! overlap engine keys its accumulator by `(op_id, cpu_tag, gpu)` and the
//! codec writes a per-chunk string table of interned names followed by
//! id references.
//!
//! Ids are only meaningful relative to the interner that produced them;
//! a fresh interner is built per sweep / per chunk, which keeps the id
//! space dense and makes cross-process parallel analysis trivially safe
//! (no shared mutable state).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a. Event and operation names are short (a few to a few dozen
/// bytes), where SipHash's fixed per-lookup overhead dominates the
/// interner's hot path; FNV keeps the per-event cost to a couple of
/// nanoseconds. Not DoS-resistant — fine for trace-local tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Maps strings to dense `u32` ids and back.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    by_name: FnvMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `cap` distinct strings.
    pub fn with_capacity(cap: usize) -> Self {
        Interner {
            by_name: FnvMap::with_capacity_and_hasher(cap, Default::default()),
            names: Vec::with_capacity(cap),
        }
    }

    /// Interns a shared string, returning its dense id.
    ///
    /// Re-interning an already-seen string is cheap (one hash lookup)
    /// and returns the same id; new strings clone the `Arc`, not the
    /// bytes.
    pub fn intern(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.by_name.insert(name.clone(), id);
        self.names.push(name.clone());
        id
    }

    /// Interns a borrowed string (allocates an `Arc` only on first sight).
    pub fn intern_str(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let arc: Arc<str> = Arc::from(name);
        let id = self.names.len() as u32;
        self.by_name.insert(arc.clone(), id);
        self.names.push(arc);
        id
    }

    /// The id of an already-interned string, if any.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The string behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[expect(clippy::indexing_slicing, reason = "documented panic on an id from another interner")]
    pub fn resolve(&self, id: u32) -> &Arc<str> {
        &self.names[id as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned strings, in id order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut int = Interner::new();
        let a = int.intern_str("alpha");
        let b = int.intern_str("beta");
        assert_eq!((a, b), (0, 1));
        assert_eq!(int.intern_str("alpha"), 0);
        assert_eq!(int.len(), 2);
        assert_eq!(&**int.resolve(1), "beta");
    }

    #[test]
    fn intern_shares_the_arc() {
        let mut int = Interner::new();
        let name: Arc<str> = Arc::from("op");
        let id = int.intern(&name);
        assert!(Arc::ptr_eq(int.resolve(id), &name));
        // Re-interning an equal but distinct Arc returns the original id.
        let other: Arc<str> = Arc::from("op");
        assert_eq!(int.intern(&other), id);
    }

    #[test]
    fn get_without_insert() {
        let mut int = Interner::new();
        assert_eq!(int.get("missing"), None);
        int.intern_str("present");
        assert_eq!(int.get("present"), Some(0));
    }
}
