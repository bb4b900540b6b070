//! The transactional map interface shared by the three evaluation data
//! structures (hashtable, BST, B-tree).

use hastm::{TmContext, TxResult};

/// A `u64 -> u64` map whose operations run inside an atomic region.
///
/// Implementations store all state in simulated memory and are `Copy`
/// handles (root pointers), so one structure can be shared by all worker
/// threads.
pub trait TxMap {
    /// Inserts `key -> value`; returns `true` if the key was new,
    /// `false` if an existing value was replaced.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn insert(&self, ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<bool>;

    /// Removes `key`; returns whether it was present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn remove(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<bool>;

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn get(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<Option<u64>>;

    /// Number of keys: one walk over the structure that reads its links
    /// and no key or value (the whole-structure scan of the
    /// multi-version evaluation).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn len(&self, ctx: &mut dyn TmContext) -> TxResult<u64>;

    /// Calls `f(key, value)` once per resident pair, in the structure's
    /// walk order: [`len`](TxMap::len)'s walk, plus each pair's key and
    /// value reads.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn for_each(&self, ctx: &mut dyn TmContext, f: &mut dyn FnMut(u64, u64)) -> TxResult<()>;

    /// Whether the map is empty.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    fn is_empty(&self, ctx: &mut dyn TmContext) -> TxResult<bool> {
        Ok(self.len(ctx)? == 0)
    }
}

/// Exercises any [`TxMap`] implementation against a reference
/// `BTreeMap` with a deterministic operation stream, then checks that
/// [`TxMap::for_each`] yields exactly the reference's pairs, each once,
/// and as many as [`TxMap::len`] counts. Panics on divergence.
/// Used by each structure's tests and by the cross-crate property tests.
pub fn check_against_reference<M: TxMap>(
    map: &M,
    ctx: &mut dyn TmContext,
    ops: &[(u8, u64)],
) -> std::collections::BTreeMap<u64, u64> {
    let mut reference = std::collections::BTreeMap::new();
    for &(kind, key) in ops {
        match kind % 3 {
            0 => {
                let value = key.wrapping_mul(3) + 1;
                let fresh = map.insert(ctx, key, value).expect("insert");
                assert_eq!(
                    fresh,
                    reference.insert(key, value).is_none(),
                    "insert({key}) freshness diverged"
                );
            }
            1 => {
                let removed = map.remove(ctx, key).expect("remove");
                assert_eq!(
                    removed,
                    reference.remove(&key).is_some(),
                    "remove({key}) diverged"
                );
            }
            _ => {
                let got = map.get(ctx, key).expect("get");
                assert_eq!(got, reference.get(&key).copied(), "get({key}) diverged");
            }
        }
    }
    let len = map.len(ctx).expect("len");
    assert_eq!(len, reference.len() as u64, "length diverged");
    let mut walked = std::collections::BTreeMap::new();
    let mut yielded = 0u64;
    map.for_each(ctx, &mut |key, value| {
        yielded += 1;
        assert!(
            walked.insert(key, value).is_none(),
            "for_each yielded {key} twice"
        );
    })
    .expect("for_each");
    assert_eq!(yielded, len, "for_each and len disagree");
    assert_eq!(walked, reference, "for_each diverged");
    reference
}
