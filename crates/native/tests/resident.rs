//! A runtime's resident memory follows what it touches, not what it can
//! hold.
//!
//! `NativeConfig::default()` sizes the heap at 2^20 words and the
//! stripe-lock table at 2^16: 8.5 MB that a build used to zero in full.
//! Built on pages the kernel zero-fills on first touch, a runtime nobody
//! has written costs next to nothing resident, however many came before
//! it. This file is its own test process holding one test, so `VmRSS` is
//! this test's alone.

#![cfg(target_os = "linux")]

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
    for build in 1..=5 {
        let before = vm_rss();
        let rt = NativeRuntime::new(NativeConfig::default());
        let rise = vm_rss().saturating_sub(before);
        assert!(
            rise < 1 << 20,
            "build {build} of {rt:?} raised VmRSS by {rise} bytes"
        );
        drop(rt);
    }
}
