//! A chained hash table over simulated memory.
//!
//! The paper's hashtable workload: low contention, but also low intra-
//! transaction cache reuse ("the hashing function spreads nodes across
//! buckets, so traversing a single bucket leads to poor cache behavior",
//! §7.3) — so HASTM's benefit here comes from read-log elimination and
//! validation optimization, not from barrier filtering.
//!
//! Layout: the bucket array is one object whose data words are bucket head
//! pointers; each node is an object `[key, value, next]`.

use hastm::{ObjRef, TmContext, TxResult};
use hastm_sim::Addr;

use crate::map::TxMap;

const KEY: u32 = 0;
const VALUE: u32 = 1;
const NEXT: u32 = 2;
/// Data words of a node.
const NODE_WORDS: u32 = 3;

/// A fixed-bucket chained hash table.
#[derive(Copy, Clone, Debug)]
pub struct HashTable {
    buckets_obj: ObjRef,
    nbuckets: u32,
}

/// Mixes a key into a bucket index (splitmix64 finalizer).
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl HashTable {
    /// Creates a table with `nbuckets` chains (all empty).
    pub fn create(ctx: &mut dyn TmContext, nbuckets: u32) -> Self {
        assert!(nbuckets > 0);
        let buckets_obj = ctx.ctx_alloc(nbuckets);
        // Fresh objects are zero-filled (null heads) by the simulator.
        HashTable {
            buckets_obj,
            nbuckets,
        }
    }

    fn bucket_of(&self, key: u64) -> u32 {
        (mix(key) % self.nbuckets as u64) as u32
    }

    /// Finds `(prev, node)` for `key` in its chain; `prev` is `NULL` when
    /// the node is the head.
    fn find(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<(ObjRef, ObjRef, u32)> {
        let b = self.bucket_of(key);
        let mut prev = ObjRef::NULL;
        ctx.ctx_work(6); // hash + bucket address computation
        let mut node = ObjRef(Addr(ctx.ctx_read(self.buckets_obj, b)?));
        while !node.is_null() {
            ctx.ctx_work(4); // key compare + branch + pointer chase
            if ctx.ctx_read(node, KEY)? == key {
                return Ok((prev, node, b));
            }
            prev = node;
            node = ObjRef(Addr(ctx.ctx_read(node, NEXT)?));
        }
        Ok((prev, ObjRef::NULL, b))
    }

    /// Calls `visit` on every node, chain by chain in bucket order. The
    /// walk itself reads bucket heads and `NEXT` links only.
    fn walk(
        &self,
        ctx: &mut dyn TmContext,
        visit: &mut dyn FnMut(&mut dyn TmContext, ObjRef) -> TxResult<()>,
    ) -> TxResult<()> {
        for b in 0..self.nbuckets {
            let mut node = ObjRef(Addr(ctx.ctx_read(self.buckets_obj, b)?));
            while !node.is_null() {
                visit(ctx, node)?;
                node = ObjRef(Addr(ctx.ctx_read(node, NEXT)?));
            }
        }
        Ok(())
    }
}

impl TxMap for HashTable {
    fn insert(&self, ctx: &mut dyn TmContext, key: u64, value: u64) -> TxResult<bool> {
        let (_, node, b) = self.find(ctx, key)?;
        if !node.is_null() {
            ctx.ctx_write(node, VALUE, value)?;
            return Ok(false);
        }
        let head = ctx.ctx_read(self.buckets_obj, b)?;
        let new = ctx.ctx_alloc(NODE_WORDS);
        ctx.ctx_write(new, KEY, key)?;
        ctx.ctx_write(new, VALUE, value)?;
        ctx.ctx_write(new, NEXT, head)?;
        ctx.ctx_write(self.buckets_obj, b, new.0 .0)?;
        Ok(true)
    }

    fn remove(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<bool> {
        let (prev, node, b) = self.find(ctx, key)?;
        if node.is_null() {
            return Ok(false);
        }
        let next = ctx.ctx_read(node, NEXT)?;
        if prev.is_null() {
            ctx.ctx_write(self.buckets_obj, b, next)?;
        } else {
            ctx.ctx_write(prev, NEXT, next)?;
        }
        ctx.ctx_free(node, NODE_WORDS);
        Ok(true)
    }

    fn get(&self, ctx: &mut dyn TmContext, key: u64) -> TxResult<Option<u64>> {
        let (_, node, _) = self.find(ctx, key)?;
        if node.is_null() {
            Ok(None)
        } else {
            Ok(Some(ctx.ctx_read(node, VALUE)?))
        }
    }

    fn len(&self, ctx: &mut dyn TmContext) -> TxResult<u64> {
        let mut n = 0;
        self.walk(ctx, &mut |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    fn for_each(&self, ctx: &mut dyn TmContext, f: &mut dyn FnMut(u64, u64)) -> TxResult<()> {
        self.walk(ctx, &mut |ctx, node| {
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

    fn with_table<R: Send>(
        config: StmConfig,
        nbuckets: u32,
        f: impl FnOnce(&mut TxThread<'_, '_>, HashTable) -> R + Send,
    ) -> R {
        let mut m = Machine::new(MachineConfig::default());
        let rt = StmRuntime::new(&mut m, config);
        m.run_one(|cpu| {
            let mut tx = TxThread::new(&rt, cpu);
            let table = tx.atomic(|tx| Ok(HashTable::create(tx, nbuckets)));
            f(&mut tx, table)
        })
        .0
    }

    #[test]
    fn insert_get_remove() {
        with_table(StmConfig::stm(Granularity::CacheLine), 16, |tx, t| {
            tx.atomic(|tx| {
                assert!(t.insert(tx, 1, 10)?);
                assert!(t.insert(tx, 2, 20)?);
                assert!(!t.insert(tx, 1, 11)?, "overwrite returns false");
                assert_eq!(t.get(tx, 1)?, Some(11));
                assert_eq!(t.get(tx, 2)?, Some(20));
                assert_eq!(t.get(tx, 3)?, None);
                assert!(t.remove(tx, 1)?);
                assert!(!t.remove(tx, 1)?);
                assert_eq!(t.get(tx, 1)?, None);
                assert_eq!(t.len(tx)?, 1);
                Ok(())
            });
        });
    }

    #[test]
    fn chains_handle_collisions() {
        // One bucket forces every key into the same chain.
        with_table(StmConfig::stm(Granularity::CacheLine), 1, |tx, t| {
            tx.atomic(|tx| {
                for k in 0..20 {
                    assert!(t.insert(tx, k, k * 2)?);
                }
                for k in 0..20 {
                    assert_eq!(t.get(tx, k)?, Some(k * 2));
                }
                // Remove middle, head, and tail of the chain.
                assert!(t.remove(tx, 10)?);
                assert!(t.remove(tx, 19)?);
                assert!(t.remove(tx, 0)?);
                assert_eq!(t.len(tx)?, 17);
                assert_eq!(t.get(tx, 10)?, None);
                assert_eq!(t.get(tx, 11)?, Some(22));
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
            with_table(cfg, 8, |tx, t| {
                // Deterministic pseudo-random op stream.
                let mut x = 42u64;
                let ops: Vec<(u8, u64)> = (0..300)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x >> 8) as u8, x % 32)
                    })
                    .collect();
                tx.atomic(|tx| {
                    check_against_reference(&t, tx, &ops);
                    Ok(())
                });
            });
        }
    }
}
