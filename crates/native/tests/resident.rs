//! A runtime's resident memory follows what it touches, not what it can
//! hold.
//!
//! Every runtime reserves a heap of `HEAP_WORDS` (2^31) words, each beside
//! its lock word: 32 GiB that a build would zero in full, and a
//! `Multi` runtime 16 GiB more of version index. Built on pages the
//! kernel zero-fills on first touch, a runtime nobody has written costs
//! next to nothing resident, however many came before it. This file is
//! its own test process holding one test, so `VmRSS` is this test's
//! alone.

#![cfg(target_os = "linux")]

use hastm::Versioning;
use hastm_native::{NativeConfig, NativeRuntime};

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

#[test]
fn building_a_default_runtime_leaves_its_capacity_untouched() {
    let multi = NativeConfig {
        versioning: Versioning::Multi { k: 3 },
        ..NativeConfig::default()
    };
    for (build, cfg) in (1..=6).zip([NativeConfig::default(), multi].iter().cycle()) {
        let before = vm_rss();
        let rt = NativeRuntime::new(cfg.clone());
        let rise = vm_rss().saturating_sub(before);
        assert!(
            rise < 1 << 20,
            "build {build} of {rt:?} raised VmRSS by {rise} bytes"
        );
        drop(rt);
    }
}
