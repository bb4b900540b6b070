//! A binary search tree with rotations (a treap) over simulated memory.
//!
//! The paper's BST workload rebalances with rotations, which is why its
//! lock-based version must lock the root ("the locking algorithm for the
//! BST locks the root to handle tree rotations; thus the locking approach
//! does not scale at all", §7.4) while the TM versions detect conflicts
//! only on the nodes actually touched. A treap reproduces this shape:
//! every insert/remove may rotate near the top of the tree, and the tree
//! stays probabilistically balanced, giving the moderate (~38 %) cache
//! reuse the paper reports for the BST.
//!
//! Node layout: `[key, value, priority, left, right]`.

use hastm::{ObjRef, TmContext, TxResult};
use hastm_sim::Addr;

use crate::map::TxMap;

const KEY: u32 = 0;
const VALUE: u32 = 1;
const PRIO: u32 = 2;
const LEFT: u32 = 3;
const RIGHT: u32 = 4;
/// Data words of a node.
const NODE_WORDS: u32 = 5;

/// A treap keyed by `u64`, with priorities derived deterministically from
/// keys (so runs are reproducible).
#[derive(Copy, Clone, Debug)]
pub struct Bst {
    /// Holder object whose word 0 is the root pointer.
    root_holder: ObjRef,
}

fn priority(key: u64) -> u64 {
    // splitmix64: uniform, deterministic per key.
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn as_ref(word: u64) -> ObjRef {
    ObjRef(Addr(word))
}

impl Bst {
    /// Creates an empty tree.
    pub fn create(ctx: &mut dyn TmContext) -> Self {
        Bst {
            root_holder: ctx.ctx_alloc(1),
        }
    }

    fn alloc_node(ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<ObjRef> {
        let node = ctx.ctx_alloc(NODE_WORDS);
        ctx.ctx_write(node, KEY, key)?;
        ctx.ctx_write(node, VALUE, value)?;
        ctx.ctx_write(node, PRIO, priority(key))?;
        // LEFT/RIGHT start null (fresh memory is zero).
        Ok(node)
    }

    /// Inserts into the subtree rooted at `node`; returns the new subtree
    /// root and whether a key was added.
    fn insert_at(
        ctx: &mut dyn TmContext,
        node: ObjRef,
        key: u64,
        value: u64,
    ) -> TxResult<(ObjRef, bool)> {
        if node.is_null() {
            return Ok((Self::alloc_node(ctx, key, value)?, true));
        }
        ctx.ctx_work(6); // compare chain + rotation checks per level
        let nkey = ctx.ctx_read(node, KEY)?;
        if key == nkey {
            ctx.ctx_write(node, VALUE, value)?;
            return Ok((node, false));
        }
        if key < nkey {
            let left = as_ref(ctx.ctx_read(node, LEFT)?);
            let (new_left, added) = Self::insert_at(ctx, left, key, value)?;
            ctx.ctx_write(node, LEFT, new_left.0 .0)?;
            // Rotate right if the child's priority beats ours (heap order).
            if ctx.ctx_read(new_left, PRIO)? > ctx.ctx_read(node, PRIO)? {
                let lr = ctx.ctx_read(new_left, RIGHT)?;
                ctx.ctx_write(node, LEFT, lr)?;
                ctx.ctx_write(new_left, RIGHT, node.0 .0)?;
                return Ok((new_left, added));
            }
            Ok((node, added))
        } else {
            let right = as_ref(ctx.ctx_read(node, RIGHT)?);
            let (new_right, added) = Self::insert_at(ctx, right, key, value)?;
            ctx.ctx_write(node, RIGHT, new_right.0 .0)?;
            if ctx.ctx_read(new_right, PRIO)? > ctx.ctx_read(node, PRIO)? {
                let rl = ctx.ctx_read(new_right, LEFT)?;
                ctx.ctx_write(node, RIGHT, rl)?;
                ctx.ctx_write(new_right, LEFT, node.0 .0)?;
                return Ok((new_right, added));
            }
            Ok((node, added))
        }
    }

    /// Merges two treaps where every key in `a` precedes every key in `b`.
    fn merge(ctx: &mut dyn TmContext, a: ObjRef, b: ObjRef) -> TxResult<ObjRef> {
        if a.is_null() {
            return Ok(b);
        }
        if b.is_null() {
            return Ok(a);
        }
        if ctx.ctx_read(a, PRIO)? > ctx.ctx_read(b, PRIO)? {
            let ar = as_ref(ctx.ctx_read(a, RIGHT)?);
            let merged = Self::merge(ctx, ar, b)?;
            ctx.ctx_write(a, RIGHT, merged.0 .0)?;
            Ok(a)
        } else {
            let bl = as_ref(ctx.ctx_read(b, LEFT)?);
            let merged = Self::merge(ctx, a, bl)?;
            ctx.ctx_write(b, LEFT, merged.0 .0)?;
            Ok(b)
        }
    }

    /// Removes `key` from the subtree at `node`; returns the new subtree
    /// root and whether the key was found.
    fn remove_at(ctx: &mut dyn TmContext, node: ObjRef, key: u64) -> TxResult<(ObjRef, bool)> {
        if node.is_null() {
            return Ok((ObjRef::NULL, false));
        }
        ctx.ctx_work(6);
        let nkey = ctx.ctx_read(node, KEY)?;
        if key == nkey {
            let l = as_ref(ctx.ctx_read(node, LEFT)?);
            let r = as_ref(ctx.ctx_read(node, RIGHT)?);
            let merged = Self::merge(ctx, l, r)?;
            ctx.ctx_free(node, NODE_WORDS);
            return Ok((merged, true));
        }
        let slot = if key < nkey { LEFT } else { RIGHT };
        let child = as_ref(ctx.ctx_read(node, slot)?);
        let (new_child, removed) = Self::remove_at(ctx, child, key)?;
        if removed {
            ctx.ctx_write(node, slot, new_child.0 .0)?;
        }
        Ok((node, removed))
    }

    /// Calls `visit` on every node of the subtree at `node`, in preorder.
    /// The walk itself reads `LEFT` and `RIGHT` only.
    fn walk(
        ctx: &mut dyn TmContext,
        node: ObjRef,
        visit: &mut dyn FnMut(&mut dyn TmContext, ObjRef) -> TxResult<()>,
    ) -> TxResult<()> {
        if node.is_null() {
            return Ok(());
        }
        visit(ctx, node)?;
        let l = as_ref(ctx.ctx_read(node, LEFT)?);
        let r = as_ref(ctx.ctx_read(node, RIGHT)?);
        Self::walk(ctx, l, visit)?;
        Self::walk(ctx, r, visit)
    }

    /// Verifies BST key order and heap priority order; returns the node
    /// count. Structural-invariant check used by tests.
    pub fn check_invariants(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        fn walk(
            ctx: &mut dyn TmContext,
            node: ObjRef,
            lo: Option<u64>,
            hi: Option<u64>,
            max_prio: u64,
        ) -> TxResult<u64> {
            if node.is_null() {
                return Ok(0);
            }
            let key = ctx.ctx_read(node, KEY)?;
            let prio = ctx.ctx_read(node, PRIO)?;
            assert!(lo.is_none_or(|lo| key > lo), "key order violated (low)");
            assert!(hi.is_none_or(|hi| key < hi), "key order violated (high)");
            assert!(prio <= max_prio, "heap order violated");
            let l = as_ref(ctx.ctx_read(node, LEFT)?);
            let r = as_ref(ctx.ctx_read(node, RIGHT)?);
            let lc = walk(ctx, l, lo, Some(key), prio)?;
            let rc = walk(ctx, r, Some(key), hi, prio)?;
            Ok(1 + lc + rc)
        }
        let root = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        walk(ctx, root, None, None, u64::MAX)
    }
}

impl TxMap for Bst {
    fn insert(&self, ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<bool> {
        let root = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        let (new_root, added) = Self::insert_at(ctx, root, key, value)?;
        if new_root != root {
            ctx.ctx_write(self.root_holder, 0, new_root.0 .0)?;
        }
        Ok(added)
    }

    fn remove(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<bool> {
        let root = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        let (new_root, removed) = Self::remove_at(ctx, root, key)?;
        if removed && new_root != root {
            ctx.ctx_write(self.root_holder, 0, new_root.0 .0)?;
        }
        Ok(removed)
    }

    fn get(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<Option<u64>> {
        let mut node = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        let mut hops = 0u32;
        while !node.is_null() {
            ctx.ctx_work(6); // compare + branch per level
            let nkey = ctx.ctx_read(node, KEY)?;
            if key == nkey {
                return Ok(Some(ctx.ctx_read(node, VALUE)?));
            }
            node = as_ref(ctx.ctx_read(node, if key < nkey { LEFT } else { RIGHT })?);
            hops += 1;
            if hops.is_multiple_of(64) {
                // A descent this deep suggests a zombie snapshot; bound it.
                ctx.ctx_guard()?;
            }
        }
        Ok(None)
    }

    fn len(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        let root = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        let mut n = 0;
        Self::walk(ctx, root, &mut |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    fn for_each(&self, ctx: &mut dyn TmContext, f: &mut dyn FnMut(u64, u64)) -> TxResult<()> {
        let root = as_ref(ctx.ctx_read(self.root_holder, 0)?);
        Self::walk(ctx, root, &mut |ctx, node| {
            f(ctx.ctx_read(node, KEY)?, ctx.ctx_read(node, VALUE)?);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::check_against_reference;
    use hastm::{Granularity, StmConfig, StmRuntime, TxThread};
    use hastm_sim::{Machine, MachineConfig};

    fn with_tree<R: Send>(
        config: StmConfig,
        f: impl FnOnce(&mut TxThread<'_, '_>, Bst) -> R + Send,
    ) -> R {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let tree = tx.atomic(|tx| Ok(Bst::create(tx)));
            f(&mut tx, tree)
        })
        .0
    }

    #[test]
    fn insert_get_remove() {
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                for k in [5u64, 3, 8, 1, 4, 7, 9, 2, 6] {
                    assert!(t.insert(tx, k, k * 10)?);
                }
                assert_eq!(t.len(tx)?, 9);
                for k in 1..=9u64 {
                    assert_eq!(t.get(tx, k)?, Some(k * 10));
                }
                assert!(t.remove(tx, 5)?);
                assert!(!t.remove(tx, 5)?);
                assert_eq!(t.get(tx, 5)?, None);
                assert_eq!(t.len(tx)?, 8);
                t.check_invariants(tx)?;
                Ok(())
            });
        });
    }

    #[test]
    fn sorted_insertion_stays_balanced() {
        // Priorities rebalance even adversarial (sorted) insertion order;
        // a plain BST would degenerate to a 256-deep list and the lookup
        // below would trip the zombie guard's depth assertions.
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                for k in 0..256u64 {
                    t.insert(tx, k, k)?;
                }
                let n = t.check_invariants(tx)?;
                assert_eq!(n, 256);
                for k in (0..256u64).step_by(17) {
                    assert_eq!(t.get(tx, k)?, Some(k));
                }
                Ok(())
            });
        });
    }

    #[test]
    fn matches_reference_model() {
        for cfg in [
            StmConfig::stm(Granularity::CacheLine),
            StmConfig::hastm_cautious(Granularity::Object),
        ] {
            with_tree(cfg, |tx, t| {
                let mut x = 7u64;
                let ops: Vec<(u8, u64)> = (0..400)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x >> 8) as u8, x % 64)
                    })
                    .collect();
                tx.atomic(|tx| {
                    check_against_reference(&t, tx, &ops);
                    t.check_invariants(tx)?;
                    Ok(())
                });
            });
        }
    }

    #[test]
    fn remove_all_leaves_empty_tree() {
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                for k in 0..40u64 {
                    t.insert(tx, k, k)?;
                }
                for k in 0..40u64 {
                    assert!(t.remove(tx, k)?, "remove {k}");
                }
                assert!(t.is_empty(tx)?);
                Ok(())
            });
        });
    }
}
