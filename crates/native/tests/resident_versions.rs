//! A `Multi` runtime's version history costs memory per word that has
//! one, not per page of heap those words are spread over.
//!
//! A word's head block (64 B at `k = 3`) is claimed from the version
//! store's block pool in first-publication order, and a per-heap-word
//! index (8 B a word) names it; pool and index are demand-zero mappings. Overwriting one word in every 64 therefore costs 64 B of pool plus
//! the 512 B of index around it, where a block kept at the word's own
//! position would fault in a 4 KiB page per write. Like `resident.rs`,
//! this file is its own test process holding one test, so `VmRSS` is
//! this test's alone.

#![cfg(target_os = "linux")]

use hastm::{ObjRef, TmExec, Versioning};
use hastm_native::{NativeConfig, NativeExec, NativeRuntime};

/// This process's resident set, in bytes.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kb << 10
}

/// Words overwritten, one in every `SPACING` heap words.
const WORDS: usize = 4096;
const SPACING: usize = 64;
/// Words overwritten per commit.
const BATCH: usize = 64;

#[test]
fn history_costs_its_blocks_not_a_page_per_written_word() {
    let rt = NativeRuntime::new(NativeConfig {
        versioning: Versioning::Multi { k: 3 },
        ..NativeConfig::default()
    });
    // Stored outside any transaction, so the heap's pages are resident
    // before the baseline and every commit below overwrites a word with
    // no history yet.
    let objs: Vec<ObjRef> = (0..WORDS)
        .map(|i| {
            let obj = rt.alloc_obj(SPACING as u32 - 1);
            rt.heap().store(obj.word(0).0, i as u64);
            obj
        })
        .collect();
    let mut ex = NativeExec::new(&rt);
    let before = vm_rss();
    for batch in objs.chunks(BATCH) {
        ex.atomic(|ctx| {
            for obj in batch {
                let value = ctx.ctx_read(*obj, 0)?;
                ctx.ctx_write(*obj, 0, value + 1)?;
            }
            Ok(())
        });
    }
    let rise = vm_rss().saturating_sub(before);

    assert_eq!(ex.stats().blocks_claimed, WORDS as u64, "{:?}", ex.stats());
    assert_eq!(rt.ring_versions(objs[WORDS / 2].word(0)).len(), 2);
    let blocks_and_index = (WORDS * (64 + 8 * SPACING)) as u64;
    assert!(
        rise < blocks_and_index + (1 << 20),
        "{WORDS} first publications raised VmRSS by {rise} bytes; their \
         blocks and index span {blocks_and_index}, a page each would be {}",
        WORDS << 12
    );
}
