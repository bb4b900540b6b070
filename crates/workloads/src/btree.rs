//! A B-tree over simulated memory (CLRS-style, minimum degree 4).
//!
//! The paper's B-tree workload has the *highest* intra-transaction cache
//! reuse (~68 %, "in part due to the good spatial locality of the Btree
//! keys", §7.3): each node packs keys contiguously across a few cache
//! lines, so binary-search probes and key shifts repeatedly touch the same
//! lines — exactly what HASTM's mark-bit filter exploits.
//!
//! Node layout (24 data words):
//!
//! | word | contents |
//! |------|----------|
//! | 0 | leaf flag |
//! | 1 | number of keys |
//! | 2..9 | keys (up to 7) |
//! | 9..16 | values |
//! | 16..24 | children (up to 8) |

use hastm::{ObjRef, TmContext, TxResult};
use hastm_sim::Addr;

use crate::map::TxMap;

/// Minimum degree `t`: nodes hold `t-1 ..= 2t-1` keys.
const T: u32 = 4;
const MAX_KEYS: u32 = 2 * T - 1; // 7
const NODE_WORDS: u32 = 2 + MAX_KEYS + MAX_KEYS + (MAX_KEYS + 1); // 24

const LEAF: u32 = 0;
const NKEYS: u32 = 1;
const KEYS: u32 = 2;
const VALS: u32 = KEYS + MAX_KEYS;
const KIDS: u32 = VALS + MAX_KEYS;

/// A `u64 -> u64` B-tree.
#[derive(Copy, Clone, Debug)]
pub struct BTree {
    /// Holder object whose word 0 is the root pointer.
    root_holder: ObjRef,
}

fn as_ref(word: u64) -> ObjRef {
    ObjRef(Addr(word))
}

/// Thin accessors over a node object.
struct Node(ObjRef);

impl Node {
    fn is_leaf(&self, ctx: &mut dyn TmContext) -> TxResult<bool> {
        Ok(ctx.ctx_read(self.0, LEAF)? != 0)
    }
    fn nkeys(&self, ctx: &mut dyn TmContext) -> TxResult<u32> {
        Ok(ctx.ctx_read(self.0, NKEYS)? as u32)
    }
    fn set_nkeys(&self, ctx: &mut dyn TmContext, n: u32) -> TxResult<()> {
        ctx.ctx_write(self.0, NKEYS, n as u64)
    }
    fn key(&self, ctx: &mut dyn TmContext, i: u32) -> TxResult<u64> {
        ctx.ctx_read(self.0, KEYS + i)
    }
    fn set_key(&self, ctx: &mut dyn TmContext, i: u32, k: u64) -> TxResult<()> {
        ctx.ctx_write(self.0, KEYS + i, k)
    }
    fn val(&self, ctx: &mut dyn TmContext, i: u32) -> TxResult<u64> {
        ctx.ctx_read(self.0, VALS + i)
    }
    fn set_val(&self, ctx: &mut dyn TmContext, i: u32, v: u64) -> TxResult<()> {
        ctx.ctx_write(self.0, VALS + i, v)
    }
    fn child(&self, ctx: &mut dyn TmContext, i: u32) -> TxResult<Node> {
        Ok(Node(as_ref(ctx.ctx_read(self.0, KIDS + i)?)))
    }
    fn set_child(&self, ctx: &mut dyn TmContext, i: u32, c: &Node) -> TxResult<()> {
        ctx.ctx_write(self.0, KIDS + i, c.0 .0 .0)
    }

    /// First index `i` with `key <= keys[i]`, or `nkeys` if none.
    fn lower_bound(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<u32> {
        let n = self.nkeys(ctx)?;
        let mut i = 0;
        while i < n && self.key(ctx, i)? < key {
            ctx.ctx_work(2); // compare + branch per probe
            i += 1;
        }
        Ok(i)
    }
}

impl BTree {
    /// Creates an empty tree (a single empty leaf as root).
    pub fn create(ctx: &mut dyn TmContext) -> TxResult<Self> {
        let root_holder = ctx.ctx_alloc(1);
        let root = Self::alloc_node(ctx, true)?;
        ctx.ctx_write(root_holder, 0, root.0 .0 .0)?;
        Ok(BTree { root_holder })
    }

    fn alloc_node(ctx: &mut dyn TmContext, leaf: bool) -> TxResult<Node> {
        let obj = ctx.ctx_alloc(NODE_WORDS);
        if leaf {
            ctx.ctx_write(obj, LEAF, 1)?;
        }
        Ok(Node(obj))
    }

    fn root(&self, ctx: &mut dyn TmContext) -> TxResult<Node> {
        Ok(Node(as_ref(ctx.ctx_read(self.root_holder, 0)?)))
    }

    /// Splits full child `i` of non-full internal node `x`.
    fn split_child(ctx: &mut dyn TmContext, x: &Node, i: u32) -> TxResult<()> {
        let y = x.child(ctx, i)?;
        let y_leaf = y.is_leaf(ctx)?;
        let z = Self::alloc_node(ctx, y_leaf)?;
        // z takes y's upper t-1 keys.
        for j in 0..T - 1 {
            let tmp = y.key(ctx, j + T)?;
            z.set_key(ctx, j, tmp)?;
            let tmp = y.val(ctx, j + T)?;
            z.set_val(ctx, j, tmp)?;
        }
        if !y_leaf {
            for j in 0..T {
                let c = y.child(ctx, j + T)?;
                z.set_child(ctx, j, &c)?;
            }
        }
        z.set_nkeys(ctx, T - 1)?;
        y.set_nkeys(ctx, T - 1)?;
        // Shift x's children/keys right to make room at i / i+1.
        let xn = x.nkeys(ctx)?;
        let mut j = xn;
        while j > i {
            let c = x.child(ctx, j)?;
            x.set_child(ctx, j + 1, &c)?;
            let tmp = x.key(ctx, j - 1)?;
            x.set_key(ctx, j, tmp)?;
            let tmp = x.val(ctx, j - 1)?;
            x.set_val(ctx, j, tmp)?;
            j -= 1;
        }
        x.set_child(ctx, i + 1, &z)?;
        // Median of y moves up.
        let tmp = y.key(ctx, T - 1)?;
        x.set_key(ctx, i, tmp)?;
        let tmp = y.val(ctx, T - 1)?;
        x.set_val(ctx, i, tmp)?;
        x.set_nkeys(ctx, xn + 1)?;
        Ok(())
    }

    fn insert_nonfull(ctx: &mut dyn TmContext, x: Node, key: u64, value: u64) -> TxResult<bool> {
        let mut x = x;
        loop {
            ctx.ctx_work(6); // per-level control flow
            let n = x.nkeys(ctx)?;
            let i = x.lower_bound(ctx, key)?;
            if i < n && x.key(ctx, i)? == key {
                x.set_val(ctx, i, value)?;
                return Ok(false);
            }
            if x.is_leaf(ctx)? {
                // Shift right and place.
                let mut j = n;
                while j > i {
                    let tmp = x.key(ctx, j - 1)?;
                    x.set_key(ctx, j, tmp)?;
                    let tmp = x.val(ctx, j - 1)?;
                    x.set_val(ctx, j, tmp)?;
                    j -= 1;
                }
                x.set_key(ctx, i, key)?;
                x.set_val(ctx, i, value)?;
                x.set_nkeys(ctx, n + 1)?;
                return Ok(true);
            }
            let mut i = i;
            let c = x.child(ctx, i)?;
            if c.nkeys(ctx)? == MAX_KEYS {
                Self::split_child(ctx, &x, i)?;
                let up_key = x.key(ctx, i)?;
                if key == up_key {
                    x.set_val(ctx, i, value)?;
                    return Ok(false);
                }
                if key > up_key {
                    i += 1;
                }
            }
            x = x.child(ctx, i)?;
        }
    }

    /// Rightmost (maximum) key/value of the subtree at `x`.
    fn subtree_max(ctx: &mut dyn TmContext, x: Node) -> TxResult<(u64, u64)> {
        let mut x = x;
        loop {
            let n = x.nkeys(ctx)?;
            if x.is_leaf(ctx)? {
                return Ok((x.key(ctx, n - 1)?, x.val(ctx, n - 1)?));
            }
            x = x.child(ctx, n)?;
        }
    }

    /// Leftmost (minimum) key/value of the subtree at `x`.
    fn subtree_min(ctx: &mut dyn TmContext, x: Node) -> TxResult<(u64, u64)> {
        let mut x = x;
        loop {
            if x.is_leaf(ctx)? {
                return Ok((x.key(ctx, 0)?, x.val(ctx, 0)?));
            }
            x = x.child(ctx, 0)?;
        }
    }

    /// Merges child `i+1` (and separator key `i`) into child `i` of `x`.
    /// Both children must hold `t-1` keys.
    fn merge_children(ctx: &mut dyn TmContext, x: &Node, i: u32) -> TxResult<()> {
        let y = x.child(ctx, i)?;
        let z = x.child(ctx, i + 1)?;
        // Separator moves down into y.
        let tmp = x.key(ctx, i)?;
        y.set_key(ctx, T - 1, tmp)?;
        let tmp = x.val(ctx, i)?;
        y.set_val(ctx, T - 1, tmp)?;
        for j in 0..T - 1 {
            let tmp = z.key(ctx, j)?;
            y.set_key(ctx, T + j, tmp)?;
            let tmp = z.val(ctx, j)?;
            y.set_val(ctx, T + j, tmp)?;
        }
        if !y.is_leaf(ctx)? {
            for j in 0..T {
                let c = z.child(ctx, j)?;
                y.set_child(ctx, T + j, &c)?;
            }
        }
        y.set_nkeys(ctx, MAX_KEYS)?;
        // Close the gap in x.
        let xn = x.nkeys(ctx)?;
        for j in i..xn - 1 {
            let tmp = x.key(ctx, j + 1)?;
            x.set_key(ctx, j, tmp)?;
            let tmp = x.val(ctx, j + 1)?;
            x.set_val(ctx, j, tmp)?;
        }
        for j in i + 1..xn {
            let c = x.child(ctx, j + 1)?;
            x.set_child(ctx, j, &c)?;
        }
        x.set_nkeys(ctx, xn - 1)?;
        ctx.ctx_free(z.0, NODE_WORDS);
        Ok(())
    }

    /// Removes `key` from the subtree at `x`, which is guaranteed to hold
    /// at least `t` keys (or be the root).
    fn remove_from(ctx: &mut dyn TmContext, x: Node, key: u64) -> TxResult<bool> {
        ctx.ctx_work(6); // per-level control flow
        let n = x.nkeys(ctx)?;
        let i = x.lower_bound(ctx, key)?;
        let leaf = x.is_leaf(ctx)?;
        if i < n && x.key(ctx, i)? == key {
            if leaf {
                // Case 1: delete from leaf.
                for j in i..n - 1 {
                    let tmp = x.key(ctx, j + 1)?;
                    x.set_key(ctx, j, tmp)?;
                    let tmp = x.val(ctx, j + 1)?;
                    x.set_val(ctx, j, tmp)?;
                }
                x.set_nkeys(ctx, n - 1)?;
                return Ok(true);
            }
            // Case 2: key in internal node.
            let y = x.child(ctx, i)?;
            if y.nkeys(ctx)? >= T {
                let yc = x.child(ctx, i)?;
                let (pk, pv) = Self::subtree_max(ctx, yc)?;
                x.set_key(ctx, i, pk)?;
                x.set_val(ctx, i, pv)?;
                let down = Self::ensure_t(ctx, &x, i)?;
                return Self::remove_from(ctx, down, pk).map(|_| true);
            }
            let z = x.child(ctx, i + 1)?;
            if z.nkeys(ctx)? >= T {
                let zc = x.child(ctx, i + 1)?;
                let (sk, sv) = Self::subtree_min(ctx, zc)?;
                x.set_key(ctx, i, sk)?;
                x.set_val(ctx, i, sv)?;
                let down = Self::ensure_t(ctx, &x, i + 1)?;
                return Self::remove_from(ctx, down, sk).map(|_| true);
            }
            // Case 2c: both children minimal — merge and recurse.
            Self::merge_children(ctx, &x, i)?;
            let merged = x.child(ctx, i)?;
            return Self::remove_from(ctx, merged, key);
        }
        if leaf {
            return Ok(false);
        }
        // Case 3: descend, topping up the child first.
        let child = Self::ensure_t(ctx, &x, i)?;
        Self::remove_from(ctx, child, key)
    }

    /// Guarantees child `i` of `x` holds at least `t` keys before descent
    /// (CLRS cases 3a/3b: borrow from a sibling or merge). Returns the
    /// (possibly different) node to descend into.
    fn ensure_t(ctx: &mut dyn TmContext, x: &Node, i: u32) -> TxResult<Node> {
        let c = x.child(ctx, i)?;
        if c.nkeys(ctx)? >= T {
            return Ok(c);
        }
        let xn = x.nkeys(ctx)?;
        // 3a: borrow from left sibling.
        if i > 0 {
            let left = x.child(ctx, i - 1)?;
            let ln = left.nkeys(ctx)?;
            if ln >= T {
                let cn = c.nkeys(ctx)?;
                // Shift c right.
                let mut j = cn;
                while j > 0 {
                    let tmp = c.key(ctx, j - 1)?;
                    c.set_key(ctx, j, tmp)?;
                    let tmp = c.val(ctx, j - 1)?;
                    c.set_val(ctx, j, tmp)?;
                    j -= 1;
                }
                if !c.is_leaf(ctx)? {
                    let mut j = cn + 1;
                    while j > 0 {
                        let ch = c.child(ctx, j - 1)?;
                        c.set_child(ctx, j, &ch)?;
                        j -= 1;
                    }
                    let lc = left.child(ctx, ln)?;
                    c.set_child(ctx, 0, &lc)?;
                }
                // Separator moves down; left's last key moves up.
                let tmp = x.key(ctx, i - 1)?;
                c.set_key(ctx, 0, tmp)?;
                let tmp = x.val(ctx, i - 1)?;
                c.set_val(ctx, 0, tmp)?;
                let tmp = left.key(ctx, ln - 1)?;
                x.set_key(ctx, i - 1, tmp)?;
                let tmp = left.val(ctx, ln - 1)?;
                x.set_val(ctx, i - 1, tmp)?;
                left.set_nkeys(ctx, ln - 1)?;
                c.set_nkeys(ctx, cn + 1)?;
                return Ok(c);
            }
        }
        // 3a: borrow from right sibling.
        if i < xn {
            let right = x.child(ctx, i + 1)?;
            let rn = right.nkeys(ctx)?;
            if rn >= T {
                let cn = c.nkeys(ctx)?;
                let tmp = x.key(ctx, i)?;
                c.set_key(ctx, cn, tmp)?;
                let tmp = x.val(ctx, i)?;
                c.set_val(ctx, cn, tmp)?;
                if !c.is_leaf(ctx)? {
                    let rc = right.child(ctx, 0)?;
                    c.set_child(ctx, cn + 1, &rc)?;
                }
                let tmp = right.key(ctx, 0)?;
                x.set_key(ctx, i, tmp)?;
                let tmp = right.val(ctx, 0)?;
                x.set_val(ctx, i, tmp)?;
                for j in 0..rn - 1 {
                    let tmp = right.key(ctx, j + 1)?;
                    right.set_key(ctx, j, tmp)?;
                    let tmp = right.val(ctx, j + 1)?;
                    right.set_val(ctx, j, tmp)?;
                }
                if !right.is_leaf(ctx)? {
                    for j in 0..rn {
                        let ch = right.child(ctx, j + 1)?;
                        right.set_child(ctx, j, &ch)?;
                    }
                }
                right.set_nkeys(ctx, rn - 1)?;
                c.set_nkeys(ctx, cn + 1)?;
                return Ok(c);
            }
        }
        // 3b: merge with a sibling.
        if i < xn {
            Self::merge_children(ctx, x, i)?;
            x.child(ctx, i)
        } else {
            Self::merge_children(ctx, x, i - 1)?;
            x.child(ctx, i - 1)
        }
    }

    /// Calls `visit(node, nkeys)` on every node of the subtree at `x`, in
    /// preorder. The walk itself reads `nkeys`, the leaf flag and the
    /// children only.
    fn walk(
        ctx: &mut dyn TmContext,
        x: Node,
        visit: &mut dyn FnMut(&mut dyn TmContext, &Node, u32) -> TxResult<()>,
    ) -> TxResult<()> {
        let n = x.nkeys(ctx)?;
        visit(ctx, &x, n)?;
        if !x.is_leaf(ctx)? {
            for i in 0..=n {
                let c = x.child(ctx, i)?;
                Self::walk(ctx, c, visit)?;
            }
        }
        Ok(())
    }

    /// Verifies key ordering and node-fill invariants; returns the key
    /// count.
    pub fn check_invariants(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        fn walk(
            ctx: &mut dyn TmContext,
            x: Node,
            lo: Option<u64>,
            hi: Option<u64>,
            is_root: bool,
            depth: u32,
            leaf_depth: &mut Option<u32>,
        ) -> TxResult<u64> {
            let n = x.nkeys(ctx)?;
            assert!(n <= MAX_KEYS, "node overfull");
            if !is_root {
                assert!(n >= T - 1, "node underfull: {n}");
            }
            for i in 1..n {
                assert!(
                    x.key(ctx, i - 1)? < x.key(ctx, i)?,
                    "keys out of order within node"
                );
            }
            if n > 0 {
                assert!(lo.is_none_or(|lo| x.key(ctx, 0).unwrap() > lo));
                assert!(hi.is_none_or(|hi| x.key(ctx, n - 1).unwrap() < hi));
            }
            if x.is_leaf(ctx)? {
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at unequal depth"),
                }
                return Ok(n as u64);
            }
            let mut total = n as u64;
            for i in 0..=n {
                let child_lo = if i == 0 { lo } else { Some(x.key(ctx, i - 1)?) };
                let child_hi = if i == n { hi } else { Some(x.key(ctx, i)?) };
                let c = x.child(ctx, i)?;
                total += walk(ctx, c, child_lo, child_hi, false, depth + 1, leaf_depth)?;
            }
            Ok(total)
        }
        let root = self.root(ctx)?;
        let mut leaf_depth = None;
        walk(ctx, root, None, None, true, 0, &mut leaf_depth)
    }
}

impl TxMap for BTree {
    fn insert(&self, ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<bool> {
        let root = self.root(ctx)?;
        if root.nkeys(ctx)? == MAX_KEYS {
            let new_root = Self::alloc_node(ctx, false)?;
            new_root.set_child(ctx, 0, &root)?;
            ctx.ctx_write(self.root_holder, 0, new_root.0 .0 .0)?;
            Self::split_child(ctx, &new_root, 0)?;
            return Self::insert_nonfull(ctx, new_root, key, value);
        }
        Self::insert_nonfull(ctx, root, key, value)
    }

    fn remove(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<bool> {
        let root = self.root(ctx)?;
        let start = self.root(ctx)?;
        let removed = Self::remove_from(ctx, start, key)?;
        // Shrink the root if it emptied out.
        if root.nkeys(ctx)? == 0 && !root.is_leaf(ctx)? {
            let only = root.child(ctx, 0)?;
            ctx.ctx_write(self.root_holder, 0, only.0 .0 .0)?;
            ctx.ctx_free(root.0, NODE_WORDS);
        }
        Ok(removed)
    }

    fn get(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<Option<u64>> {
        let mut x = self.root(ctx)?;
        let mut hops = 0u32;
        loop {
            ctx.ctx_work(6);
            let n = x.nkeys(ctx)?;
            let i = x.lower_bound(ctx, key)?;
            if i < n && x.key(ctx, i)? == key {
                return Ok(Some(x.val(ctx, i)?));
            }
            if x.is_leaf(ctx)? {
                return Ok(None);
            }
            x = x.child(ctx, i)?;
            hops += 1;
            if hops.is_multiple_of(32) {
                ctx.ctx_guard()?;
            }
        }
    }

    fn len(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        let root = self.root(ctx)?;
        let mut total = 0;
        Self::walk(ctx, root, &mut |_, _, n| {
            total += u64::from(n);
            Ok(())
        })?;
        Ok(total)
    }

    fn for_each(&self, ctx: &mut dyn TmContext, f: &mut dyn FnMut(u64, u64)) -> TxResult<()> {
        let root = self.root(ctx)?;
        Self::walk(ctx, root, &mut |ctx, x, n| {
            for i in 0..n {
                f(x.key(ctx, i)?, x.val(ctx, i)?);
            }
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
        f: impl FnOnce(&mut TxThread<'_, '_>, BTree) -> R + Send,
    ) -> R {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let tree = tx.atomic(|tx| BTree::create(tx));
            f(&mut tx, tree)
        })
        .0
    }

    #[test]
    fn insert_fill_and_split() {
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                for k in 0..64u64 {
                    assert!(t.insert(tx, k, k + 100)?);
                }
                assert_eq!(t.check_invariants(tx)?, 64);
                for k in 0..64u64 {
                    assert_eq!(t.get(tx, k)?, Some(k + 100));
                }
                assert_eq!(t.get(tx, 64)?, None);
                Ok(())
            });
        });
    }

    #[test]
    fn overwrite_returns_false() {
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                assert!(t.insert(tx, 9, 1)?);
                assert!(!t.insert(tx, 9, 2)?);
                assert_eq!(t.get(tx, 9)?, Some(2));
                assert_eq!(t.len(tx)?, 1);
                Ok(())
            });
        });
    }

    #[test]
    fn deletion_all_cases() {
        // Dense insert + interleaved removals exercise leaf deletion,
        // internal-node deletion, borrows, and merges.
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            tx.atomic(|tx| {
                for k in 0..200u64 {
                    t.insert(tx, k, k)?;
                }
                // Remove evens (hits internal keys and forces merges).
                for k in (0..200u64).step_by(2) {
                    assert!(t.remove(tx, k)?, "remove {k}");
                    if k % 20 == 0 {
                        t.check_invariants(tx)?;
                    }
                }
                assert_eq!(t.check_invariants(tx)?, 100);
                for k in 0..200u64 {
                    assert_eq!(t.get(tx, k)?.is_some(), k % 2 == 1, "key {k}");
                }
                // Remove the rest in descending order.
                for k in (0..200u64).rev() {
                    let expect = k % 2 == 1;
                    assert_eq!(t.remove(tx, k)?, expect, "remove {k}");
                }
                assert!(t.is_empty(tx)?);
                t.check_invariants(tx)?;
                Ok(())
            });
        });
    }

    #[test]
    fn matches_reference_model() {
        for cfg in [
            StmConfig::stm(Granularity::CacheLine),
            StmConfig::hastm_cautious(Granularity::CacheLine),
        ] {
            with_tree(cfg, |tx, t| {
                let mut x = 99u64;
                let ops: Vec<(u8, u64)> = (0..500)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x >> 8) as u8, x % 96)
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
    fn random_churn_keeps_invariants() {
        with_tree(StmConfig::stm(Granularity::CacheLine), |tx, t| {
            let mut x = 1234567u64;
            tx.atomic(|tx| {
                for round in 0..6 {
                    for _ in 0..100 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 64;
                        if x & 1 == 0 {
                            t.insert(tx, k, k)?;
                        } else {
                            t.remove(tx, k)?;
                        }
                    }
                    let _ = round;
                    t.check_invariants(tx)?;
                }
                Ok(())
            });
        });
    }
}
