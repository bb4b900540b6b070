//! Stackful contexts switched cooperatively on the thread that runs them.
//!
//! A [`Group`] turns a set of closures into contexts, each on its own
//! stack, and runs them on the calling thread: exactly one executes at any
//! time, and control moves only where a context asks ([`Group::switch_to`])
//! or when one finishes. A switch saves six registers and a stack pointer,
//! so it costs about what a function call does — which is what lets the
//! simulator give every simulated core its own control flow without giving
//! it a host thread.
//!
//! This module holds the crate's only `unsafe`: the x86-64 System V
//! register switch, the hand-built first frame of a context, the stack
//! allocation with its guard page, and the lifetime erasure that lets a
//! borrowed closure sit on a context's stack. Everything it exports is
//! safe to call; the conditions the unsafe code relies on are private
//! fields checked here, not promises from callers.

use std::alloc::{self, Layout};
use std::cell::{Cell, OnceCell};
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

use crate::gate::Payload;

/// One context's body.
pub(crate) type Task<'env> = Box<dyn FnOnce() + 'env>;

/// Called on a finished context's stack with that context's index; names
/// the context to resume, or `None` to return to [`Group::run`]'s caller.
pub(crate) type Next<'env> = dyn Fn(usize) -> Option<usize> + 'env;

/// x86-64 page size; also the size of each stack's guard.
const PAGE: usize = 4096;

/// Bytes per context stack, guard page included. The same 2 MiB a
/// `std::thread` gets by default, so worker code that fit a thread fits a
/// context.
const STACK_BYTES: usize = 2 << 20;

const STACK_LAYOUT: Layout = match Layout::from_size_align(STACK_BYTES, PAGE) {
    Ok(layout) => layout,
    Err(_) => panic!("stack layout"),
};

const PROT_NONE: c_int = 0;
const PROT_READ_WRITE: c_int = 1 | 2;

extern "C" {
    /// `mprotect(2)` from the C library `std` already links.
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
}

/// A context's stack: a page-aligned block whose lowest page is
/// inaccessible, so running off the end faults instead of overwriting
/// whatever the allocator placed below. (Frames larger than a page cannot
/// step over it: rustc probes each page of a large frame on x86-64.)
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: `STACK_LAYOUT` has a nonzero size.
        let base = unsafe { alloc::alloc(STACK_LAYOUT) };
        let Some(base) = NonNull::new(base) else {
            alloc::handle_alloc_error(STACK_LAYOUT)
        };
        let stack = Stack { base };
        // SAFETY: `[base, base + PAGE)` is one whole page (the layout is
        // page-aligned and larger than a page) of a block this function
        // just allocated, and nothing has been stored in it.
        let rc = unsafe { mprotect(base.as_ptr().cast(), PAGE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a context stack's guard page failed");
        stack
    }

    /// One past the highest byte: where the stack starts growing down.
    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the `STACK_BYTES` allocation.
        unsafe { self.base.as_ptr().add(STACK_BYTES) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // The allocator may write to a freed block, so the guard page must
        // be writable again first; if the kernel refuses, leak the block.
        // SAFETY: the same page `new` protected, still owned by `self`.
        let rc = unsafe { mprotect(self.base.as_ptr().cast(), PAGE, PROT_READ_WRITE) };
        if rc == 0 {
            // SAFETY: allocated in `new` with this layout, freed once.
            unsafe { alloc::dealloc(self.base.as_ptr(), STACK_LAYOUT) };
        }
    }
}

/// Saves the running context in `*save` and resumes the one suspended at
/// `to`.
///
/// The callee-saved registers go on the running stack and its stack
/// pointer into `*save`; then the same registers and a resume address come
/// off the stack at `to`. Caller-saved registers need no saving — this is
/// an `extern "C"` call, so the compiler already assumes them lost. The
/// MXCSR and x87 control words are left alone: nothing in this program
/// changes them, so every context has the same ones.
///
/// # Safety
///
/// `save` must be writable, and `to` must be a stack pointer this function
/// stored earlier — or one [`prepare`] built — that has not been resumed
/// since, on a stack that is still allocated. The suspended context's
/// frames must still be valid to run (everything they borrow is alive).
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        // `ret`, not `pop`+`jmp`: the return-address predictor holds the
        // *old* context's calls, but nearly every context is suspended at
        // the one call site in `Group::switch_to`, reached through the same
        // few callers — so the addresses it predicts for this `ret` and the
        // ones after it are the right ones. Leaving this frame with a `jmp`
        // left the predictor one entry ahead of the stack, and every return
        // up the resumed context's call chain mispredicted (a two-core
        // lockstep load loop: 74 ns per op with `jmp`, 40 ns with `ret`).
        "ret",
    )
}

/// Where a new context begins: [`prepare`] leaves the address of its
/// [`Start`] in `r12` and the stack pointer 16-byte aligned, which is what
/// a `call` needs.
#[unsafe(naked)]
unsafe extern "C" fn enter() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "call {main}",
        "ud2",
        main = sym context_main,
    )
}

/// What a new context needs to get going; [`prepare`] stores it at the top
/// of the context's own stack, so starting a run allocates nothing.
struct Start {
    group: *const Group,
    id: usize,
    task: Task<'static>,
    next: *const Next<'static>,
}

/// Stores `start` at the top of a stack and below it the frame [`switch`]
/// expects to find, so that resuming the returned stack pointer enters
/// [`context_main`] with `start`.
///
/// # Safety
///
/// `top` must be the 16-byte-aligned upper end of a stack with at least a
/// page of writable bytes below it, and no context may be using that
/// stack.
unsafe fn prepare(top: *mut u8, start: Start) -> *mut u8 {
    const WORD: usize = size_of::<usize>();
    // Two zero words end the frame chain for anything that walks it, six
    // registers and the resume address are what `switch` pops.
    const FRAME_WORDS: usize = 6 + 1 + 2;
    let start_bytes = size_of::<Start>().next_multiple_of(16);
    // SAFETY: both offsets stay inside the writable page below `top`.
    unsafe {
        let start_at = top.sub(start_bytes).cast::<Start>();
        start_at.write(start);
        let frame = start_at.cast::<usize>().sub(FRAME_WORDS);
        frame.write_bytes(0, FRAME_WORDS);
        frame.add(3).write(start_at as usize); // popped into r12
        frame.add(6).write(enter as *const () as usize);
        debug_assert_eq!((frame as usize + 7 * WORD) % 16, 0);
        frame.cast()
    }
}

/// Body of every context: run the task, report the panic if there was
/// one, ask where to go next, and go there for good.
///
/// Nothing may unwind out of this function — there is no caller frame to
/// unwind into — so anything that goes wrong outside the task aborts.
unsafe extern "C" fn context_main(start: *mut Start) -> ! {
    // SAFETY: `prepare` wrote a `Start` at this address, and a prepared
    // stack pointer is resumed once, so it is read once.
    let Start {
        group,
        id,
        task,
        next,
    } = unsafe { start.read() };
    // SAFETY: `Group::run` is on the stack below every context it starts
    // and borrows the group and `next` until all of them have finished.
    let (group, next) = unsafe { (&*group, &*next) };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
        // The first panic is the one `run` reports.
        let first = group.panic.take().unwrap_or(payload);
        group.panic.set(Some(first));
    }
    let to = next(id);
    group.live.set(group.live.get() - 1);
    let target = match to {
        Some(to) => group.resume_pointer(to),
        None if group.live.get() == 0 => group.caller.replace(ptr::null_mut()),
        // Returning with a context still suspended would free stack frames
        // that were never unwound while what they borrow is released.
        None => ptr::null_mut(),
    };
    if target.is_null() {
        std::process::abort();
    }
    let mut unused = ptr::null_mut();
    // SAFETY: `target` came out of a slot (or the caller's), which nulls
    // it, so it is resumed once; `unused` receives this finished context's
    // stack pointer, which nothing resumes.
    unsafe { switch(&mut unused, target) };
    std::process::abort()
}

/// One context of a [`Group`].
struct Slot {
    /// Allocated the first time the slot is used, kept for later runs.
    stack: OnceCell<Stack>,
    /// Where the context is suspended; null while it runs, once it has
    /// finished, and between runs.
    sp: Cell<*mut u8>,
}

/// Marks [`Group::current`] when no context of the group is running.
const NOBODY: usize = usize::MAX;

/// A fixed number of contexts that take turns on one thread, with their
/// stacks cached from run to run.
pub(crate) struct Group {
    slots: Box<[Slot]>,
    /// Where [`Group::run`]'s caller is suspended during a run.
    caller: Cell<*mut u8>,
    /// The context running now, or [`NOBODY`].
    current: Cell<usize>,
    /// Contexts of this run that have not finished.
    live: Cell<usize>,
    /// First panic payload of this run.
    panic: Cell<Option<Payload>>,
}

// SAFETY: the raw pointers are the group's own stacks (`Slot::stack`,
// uniquely owned heap blocks) and stack pointers into them or into the
// caller's stack (`Slot::sp`, `caller`), and the latter are non-null only
// inside `run`, which borrows the group; a group that can be moved has no
// context in flight, and what is left — idle stacks, counters, a `Send`
// panic payload — is tied to no thread. The type stays `!Sync` (it is all
// `Cell`s), which is what keeps `switch_to` on the thread inside `run`.
unsafe impl Send for Group {}

impl Group {
    /// A group of up to `contexts` contexts. Allocates no stack yet.
    pub(crate) fn new(contexts: usize) -> Group {
        Group {
            slots: (0..contexts)
                .map(|_| Slot {
                    stack: OnceCell::new(),
                    sp: Cell::new(ptr::null_mut()),
                })
                .collect(),
            caller: Cell::new(ptr::null_mut()),
            current: Cell::new(NOBODY),
            live: Cell::new(0),
            panic: Cell::new(None),
        }
    }

    /// Runs `tasks[i]` as context `i`, starting with context `first`, and
    /// returns when all have finished: `Err` with the first panic payload
    /// if any task panicked. A context runs until it calls
    /// [`Group::switch_to`] or its task ends; when a task ends, `next`
    /// picks the successor (see [`Next`]).
    ///
    /// Aborts the process if `next` returns `None` while a context is
    /// still suspended, or names one that is not.
    pub(crate) fn run<'env>(
        &self,
        tasks: Vec<Task<'env>>,
        first: usize,
        next: &Next<'env>,
    ) -> Result<(), Payload> {
        let n = tasks.len();
        assert!(
            self.current.get() == NOBODY,
            "a context group runs one set of tasks at a time"
        );
        assert!(
            first < n && n <= self.slots.len(),
            "{n} tasks starting at {first} on {} contexts",
            self.slots.len()
        );
        for slot in &self.slots[..n] {
            slot.stack.get_or_init(Stack::new);
        }
        // SAFETY: only the lifetime changes. `next` is dereferenced by
        // contexts of this run, and this function returns only after the
        // last of them has finished (`context_main` aborts otherwise).
        let next = unsafe { std::mem::transmute::<*const Next<'env>, *const Next<'static>>(next) };
        for (id, (task, slot)) in tasks.into_iter().zip(&self.slots[..n]).enumerate() {
            // SAFETY: only the lifetime changes; the task runs, and is
            // dropped, inside this call, as argued for `next` above.
            let task = unsafe { std::mem::transmute::<Task<'env>, Task<'static>>(task) };
            let start = Start {
                group: self,
                id,
                task,
                next,
            };
            let top = slot.stack.get().expect("allocated above").top();
            // SAFETY: `top` is the page-aligned end of a `STACK_BYTES`
            // block; `current == NOBODY` was checked, so the previous run
            // finished every context and nothing runs on this stack.
            slot.sp.set(unsafe { prepare(top, start) });
        }
        self.live.set(n);
        let target = self.resume_pointer(first);
        // SAFETY: `target` was prepared above and is taken out of its slot;
        // `caller` is a field of `self`, which outlives the call.
        unsafe { switch(self.caller.as_ptr(), target) };
        // Only `context_main`'s `None` arm resumes `caller`, and only with
        // no context left.
        self.current.set(NOBODY);
        match self.panic.take() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }

    /// Suspends the running context and resumes context `to`; returns when
    /// some context switches back to this one.
    ///
    /// # Panics
    ///
    /// Panics if no context of this group is running, or if `to` is not
    /// suspended (it is the running one, or has finished).
    pub(crate) fn switch_to(&self, to: usize) {
        let from = self.current.get();
        assert!(from != NOBODY, "switch_to outside Group::run");
        let target = self.resume_pointer(to);
        assert!(
            !target.is_null(),
            "context {to} is not suspended (running or finished)"
        );
        // SAFETY: `target` is a suspended context's stack pointer, taken
        // out of its slot so nothing resumes it twice; its stack is owned
        // by `self`, and what its frames borrow is alive because `run`
        // has not returned. The running context's pointer goes into its
        // own slot, making it the one `from` is resumed through. `self` is
        // `!Sync` and borrowed by `run` for the whole run, so this is the
        // thread `run` was called on: the stack being left is the one
        // `current` names (or a nested group's, which resumes with it).
        unsafe { switch(self.slots[from].sp.as_ptr(), target) };
    }

    /// Takes context `to`'s stack pointer out of its slot (null if it is
    /// not suspended) and makes `to` the current context.
    fn resume_pointer(&self, to: usize) -> *mut u8 {
        let target = self.slots[to].sp.replace(ptr::null_mut());
        if !target.is_null() {
            self.current.set(to);
        }
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn boxed<'env>(f: impl FnOnce() + 'env) -> Task<'env> {
        Box::new(f)
    }

    /// `next` for tests: the lowest-numbered context not yet finished.
    fn lowest_unfinished(done: &RefCell<Vec<bool>>) -> impl Fn(usize) -> Option<usize> + '_ {
        move |id| {
            let mut done = done.borrow_mut();
            done[id] = true;
            done.iter().position(|d| !d)
        }
    }

    #[test]
    fn contexts_interleave_where_they_switch() {
        let group = Group::new(2);
        let log = RefCell::new(Vec::new());
        let done = RefCell::new(vec![false; 2]);
        let tasks = vec![
            boxed(|| {
                for i in 0..3 {
                    log.borrow_mut().push((0, i));
                    group.switch_to(1);
                }
            }),
            boxed(|| {
                for i in 0..3 {
                    log.borrow_mut().push((1, i));
                    group.switch_to(0);
                }
            }),
        ];
        group
            .run(tasks, 0, &lowest_unfinished(&done))
            .expect("no task panics");
        assert_eq!(
            *log.borrow(),
            [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn first_panic_is_reported_and_the_group_runs_again() {
        let group = Group::new(3);
        for round in 0..2 {
            let done = RefCell::new(vec![false; 3]);
            let dropped = Cell::new(0);
            struct CountDrop<'a>(&'a Cell<u32>);
            impl Drop for CountDrop<'_> {
                fn drop(&mut self) {
                    self.0.set(self.0.get() + 1);
                }
            }
            let tasks = (0..3)
                .map(|id| {
                    let guard = CountDrop(&dropped);
                    boxed(move || {
                        let _guard = guard;
                        if id == 1 {
                            panic!("context 1, round {round}");
                        }
                    })
                })
                .collect();
            let payload = group
                .run(tasks, 0, &lowest_unfinished(&done))
                .expect_err("context 1 panics");
            let message = payload.downcast::<String>().expect("formatted message");
            assert_eq!(*message, format!("context 1, round {round}"));
            assert_eq!(dropped.get(), 3, "every task's captures are dropped");
        }
    }

    #[test]
    fn switching_to_a_finished_context_panics_inside_the_task() {
        let group = Group::new(2);
        let done = RefCell::new(vec![false; 2]);
        let tasks = vec![boxed(|| {}), boxed(|| group.switch_to(0))];
        let payload = group
            .run(tasks, 0, &lowest_unfinished(&done))
            .expect_err("context 0 has finished when context 1 switches to it");
        let message = payload.downcast::<String>().expect("formatted message");
        assert!(message.contains("not suspended"), "{message}");
    }

    #[test]
    #[should_panic(expected = "outside Group::run")]
    fn switching_outside_a_run_panics() {
        Group::new(1).switch_to(0);
    }

    /// Not a test of its own: [`overflow_faults_on_the_guard_page`] runs
    /// it in a child process and expects the child to die.
    #[test]
    #[ignore = "overflows a context stack on purpose"]
    fn overflow_child() {
        #[allow(unconditional_recursion)]
        fn dive(depth: u64) -> u64 {
            let pad = std::hint::black_box([depth; 32]);
            dive(depth + 1) + pad[0]
        }
        let group = Group::new(1);
        let _ = group.run(
            vec![boxed(|| {
                std::hint::black_box(dive(0));
            })],
            0,
            &|_| None,
        );
    }

    #[test]
    fn overflow_faults_on_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["--ignored", "--exact", "coop::tests::overflow_child"])
            .output()
            .expect("spawn the test binary");
        const SIGSEGV: i32 = 11;
        const SIGBUS: i32 = 10;
        assert!(
            matches!(out.status.signal(), Some(SIGSEGV | SIGBUS)),
            "an overflowing context must fault, got {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
