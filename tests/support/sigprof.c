// LD_PRELOAD sampling shim for tests/profile.sh (DESIGN §7.4): SIGPROF every
// 1 ms of CPU time, backtrace() per sample, and at exit one line per sample
// in $SIGPROF_OUT holding the stack as file offsets into the executable,
// innermost frame first. Return addresses are written minus 1 so addr2line
// lands on the call, not on the line after it; a frame outside the
// executable (libc, this shim) is written as 0.
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>

#define MAX_SAMPLES 65536
#define DEPTH 48
// Frames 0 and 1 of a stack taken in the handler are the handler and the
// kernel's signal trampoline; frame 2 is the interrupted instruction.
#define SKIP 2

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static int taken;
static uintptr_t lo, hi;

static void on_sigprof(int sig) {
    (void)sig;
    int slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES) depths[slot] = backtrace(stacks[slot], DEPTH);
}

// dl_iterate_phdr visits the executable first: note its range and stop.
static int executable_range(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    lo = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && lo + ph->p_vaddr + ph->p_memsz > hi)
            hi = lo + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4);  // loads the unwinder now, not inside the handler
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    dl_iterate_phdr(executable_range, NULL);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int s = 0; s < n; s++) {
        for (int f = SKIP; f < depths[s]; f++) {
            uintptr_t pc = (uintptr_t)stacks[s][f] - (f > SKIP);
            fprintf(out, "%lx ", pc >= lo && pc < hi ? (unsigned long)(pc - lo) : 0UL);
        }
        fputc('\n', out);
    }
    fclose(out);
}
