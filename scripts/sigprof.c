/* A sampling profiler for hosts without `perf`, as an LD_PRELOAD library:
 * ITIMER_PROF fires SIGPROF every millisecond of CPU time the process
 * uses, the handler records the interrupted instruction pointer, and at
 * exit the samples are written, one hex offset from the executable's load
 * base per line, to the file scripts/profile.sh names in $SIGPROF_OUT —
 * the form `addr2line -e <binary>` reads. Without $SIGPROF_OUT nothing
 * is sampled. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sigprof.c reads the interrupted RIP from a Linux x86-64 ucontext"
#endif

#define MAX_SAMPLES (1u << 22)
static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig, (void)info;
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

/* The first object dl_iterate_phdr reports is the executable itself. */
static int load_base(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(unsigned long *)base = info->dlpi_addr;
    return 1;
}

static void dump(void) {
    const struct itimerval off = {{0, 0}, {0, 0}};
    unsigned long base = 0, n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    FILE *out = fopen(getenv("SIGPROF_OUT"), "w");
    setitimer(ITIMER_PROF, &off, NULL);
    dl_iterate_phdr(load_base, &base);
    for (unsigned long i = 0; out && i < n; i++)
        fprintf(out, "%lx\n", samples[i] - base);
    if (out)
        fclose(out);
}

__attribute__((constructor)) static void start(void) {
    const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    struct sigaction action = {0};
    if (!getenv("SIGPROF_OUT"))
        return;
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    atexit(dump);
    setitimer(ITIMER_PROF, &every_ms, NULL);
}
