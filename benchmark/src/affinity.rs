//! Confining the calling thread, and every thread it spawns afterwards,
//! to one host CPU.
//!
//! `sim_multi` uses this. Its two host threads strictly alternate (the
//! gate admits one simulated core at a time), so a second CPU buys no
//! parallelism — it only turns every handoff into a cross-CPU wake-up,
//! which on a virtual machine goes through the hypervisor: measured here,
//! the same cells run 10× slower on two CPUs than on one, and move by
//! ±15 % with where the host happens to place the vCPUs. Confined to one
//! CPU a handoff is a same-CPU futex switch, and identical passes agree
//! within a few percent. The cross-CPU handoff stays visible, without a
//! regression bound, as the `sim.machine.gate_ns_per_op_2c` probe.
//!
//! `std` has no affinity API and the build is offline, so this is the raw
//! `sched_{get,set}affinity` system call, on Linux x86-64 only; elsewhere
//! [`Confined::to_one_cpu`] returns `None` and the threads float.

/// CPU-set size handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

/// While alive, the thread that created it runs on one CPU only; dropping
/// it restores the previous CPU set.
#[derive(Debug)]
pub struct Confined {
    previous: Mask,
}

impl Confined {
    /// Confines the calling thread to the lowest-numbered CPU it may run
    /// on. `None` if the platform has no support or the kernel refuses.
    pub fn to_one_cpu() -> Option<Confined> {
        let previous = get()?;
        let word = previous.iter().position(|&w| w != 0)?;
        let mut one = [0; MASK_WORDS];
        one[word] = 1 << previous[word].trailing_zeros();
        set(&one).then_some(Confined { previous })
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        // Nothing useful to do if the kernel refuses now what it allowed
        // before.
        set(&self.previous);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::{Mask, MASK_WORDS};

    const SCHED_SETAFFINITY: isize = 203;
    const SCHED_GETAFFINITY: isize = 204;

    /// `syscall(number, 0 /* this thread */, size_of::<Mask>(), mask)`.
    ///
    /// # Safety
    ///
    /// `mask` must be valid for reads and writes of `size_of::<Mask>()`
    /// bytes for the duration of the call, and `number` must be one of
    /// the two affinity calls above (which touch nothing else).
    unsafe fn affinity_call(number: isize, mask: *mut u64) -> isize {
        let ret: isize;
        // SAFETY: the x86-64 Linux syscall convention — number in rax,
        // arguments in rdi, rsi, rdx, result in rax, rcx and r11
        // clobbered — with the caller's guarantee about `mask`.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") number => ret,
                in("rdi") 0usize,
                in("rsi") MASK_WORDS * 8,
                in("rdx") mask,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0; MASK_WORDS];
        // SAFETY: `mask` is a live local of exactly the size passed.
        let ret = unsafe { affinity_call(SCHED_GETAFFINITY, mask.as_mut_ptr()) };
        (ret > 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        let mut copy = *mask;
        // SAFETY: `copy` is a live local of exactly the size passed; the
        // kernel only reads it.
        unsafe { affinity_call(SCHED_SETAFFINITY, copy.as_mut_ptr()) == 0 }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

use sys::{get, set};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confinement_is_inherited_by_spawned_threads_and_undone_on_drop() {
        let Some(before) = get() else {
            return; // unsupported platform: nothing to check
        };
        let cpus = |m: &Mask| m.iter().map(|w| w.count_ones()).sum::<u32>();
        {
            let _confined = Confined::to_one_cpu().expect("kernel allows narrowing");
            assert_eq!(cpus(&get().expect("readable")), 1);
            let child = std::thread::spawn(|| get().expect("readable"));
            assert_eq!(
                cpus(&child.join().expect("child ran")),
                1,
                "children inherit"
            );
        }
        assert_eq!(get().expect("readable"), before, "restored on drop");
    }
}
