//! A runtime whose address space cannot be reserved fails with a message
//! that says which array, how many bytes, and how much a runtime needs —
//! not with an allocator abort that names only a byte count.
//!
//! Each case runs this test binary again as a child under
//! `sh -c 'ulimit -v …'`, so the limit holds in that child alone.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::process::Command;

use hastm::Versioning;
use hastm_native::{NativeConfig, NativeRuntime};

/// Set in a child: which runtime to build under the limit.
const CHILD: &str = "HASTM_RESERVE_REFUSED_CHILD";
const TEST: &str = "a_refused_reservation_names_the_array_and_what_a_runtime_needs";

#[test]
fn a_refused_reservation_names_the_array_and_what_a_runtime_needs() {
    if let Ok(which) = std::env::var(CHILD) {
        let versioning = match which.as_str() {
            "multi" => Versioning::Multi { k: 3 },
            _ => Versioning::Single,
        };
        let rt = NativeRuntime::new(NativeConfig {
            versioning,
            ..NativeConfig::default()
        });
        panic!("built {rt:?} under the limit");
    }
    let exe = std::env::current_exe().expect("this test binary");
    // (runtime, array refused, bytes asked for) under a 4 GB limit: a
    // `Multi` runtime reserves its 16 GiB version index first.
    let cases = [
        ("single", "native heap", 1u64 << 35),
        ("multi", "version index", 1 << 34),
    ];
    for (which, array, bytes) in cases {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v 4000000 && exec \"$0\" --exact {TEST} --nocapture"
            ))
            .arg(&exe)
            .env(CHILD, which)
            .output()
            .expect("sh runs");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{which}: the child succeeded:\n{text}"
        );
        let expected = format!(
            "cannot reserve the {array}: {bytes} bytes of address space refused; \
             a native runtime reserves 32 GiB (48 GiB under Multi)"
        );
        assert!(
            text.contains(&expected),
            "{which}: want `{expected}` in:\n{text}"
        );
    }
}
