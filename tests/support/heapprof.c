// LD_PRELOAD heap-profiling shim for tests/heap_profile.sh (DESIGN
// "Telemetry memory"). Wraps malloc, calloc, realloc and free (and the
// aligned allocators, so that every block freed was counted when it was
// allocated), sizes each block with malloc_usable_size, and keeps the live
// total, live blocks and bytes per power-of-two size class, and, for every
// block of 512 B or more (usable size; the forecaster blocks are 856 B), the
// call stack that allocated it. At exit it writes $HEAPPROF_OUT:
//   peak <bytes>                    highest live total seen
//   table <bytes>                   live total when the tables below were taken
//   class <k> <blocks> <bytes>      live blocks of usable size [2^k, 2^(k+1))
//   untracked <blocks>              blocks of 512 B or more that found no room
//                                   in the tables (0: every one is counted)
//   site <allocs> <largest> <live> <offsets...>
//                                   one call stack of >= 512 B blocks: how
//                                   many, the largest, bytes live at the table
// Stacks are written as in sigprof.c: file offsets into the executable,
// innermost frame first, return addresses minus 1, 0 for a frame outside
// the executable (libc, this shim).
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define BIG 512
#define CLASSES 64
// Both tables are open-addressed with linear probing and kept at most half
// full, so a lookup stays a few probes with tens of thousands of live
// blocks over BIG.
#define SITES 8192
#define LIVE_BIG (1 << 17)
#define DEPTH 40
// The tables are re-taken once the peak has grown this much past the last
// take: taking them at every new peak would copy them on nearly every
// allocation while the heap grows. They are therefore within RETAKE of the
// peak, and say so.
#define RETAKE (64 << 10)

struct site {
    int depth;
    void *stack[DEPTH];
    int64_t allocs, largest, live, live_at_table;
};
struct big {
    void *ptr;
    int64_t size;
    int site;
};

// Signed: a block from an allocator this shim does not wrap (valloc, ...)
// freed through free() would otherwise wrap the totals around. The first
// allocation takes the tables.
static int64_t live, peak, table_live = -RETAKE, untracked;
static int64_t blocks[CLASSES], bytes[CLASSES], table_blocks[CLASSES], table_bytes[CLASSES];
static struct site sites[SITES];
static int n_sites;
// Open-addressed by stack hash: 1 + an index into `sites`, 0 for an empty
// slot (zero-initialised, so usable before the constructor runs).
static int site_slot[2 * SITES];
// Open-addressed by block address; a null `ptr` is an empty slot.
static struct big live_big[LIVE_BIG];
static int n_big;
static int lock;
// Set at exit: from then on nothing is counted, so the tables can be
// written (stdio allocates) without holding the lock.
static int frozen;
// Recursion guard: backtrace() allocates the first time it loads the
// unwinder. Accounting never allocates, so only the stack capture is
// guarded, and it runs outside the lock.
static __thread int capturing __attribute__((tls_model("initial-exec")));

static void acquire(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
    }
}

static void release(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

static int class_of(int64_t n) { return n > 0 ? 63 - __builtin_clzll((uint64_t)n) : 0; }

static void take_tables(void) {
    table_live = live;
    memcpy(table_blocks, blocks, sizeof blocks);
    memcpy(table_bytes, bytes, sizeof bytes);
    for (int s = 0; s < n_sites; s++) sites[s].live_at_table = sites[s].live;
}

static uint64_t mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    return x ^ (x >> 33);
}

static uint64_t big_home(void *p) { return mix((uintptr_t)p) & (LIVE_BIG - 1); }

static void note_big(void *p, int64_t n, void **stack, int depth) {
    uint64_t h = depth;
    for (int f = 0; f < depth; f++) h = mix(h ^ (uintptr_t)stack[f]);
    uint64_t at = h & (2 * SITES - 1);
    int s;
    while ((s = site_slot[at] - 1) >= 0 &&
           !(sites[s].depth == depth && !memcmp(sites[s].stack, stack, depth * sizeof *stack)))
        at = (at + 1) & (2 * SITES - 1);
    if (s < 0) {
        if (n_sites == SITES) {
            untracked++;
            return;
        }
        s = n_sites++;
        site_slot[at] = s + 1;
        sites[s].depth = depth;
        memcpy(sites[s].stack, stack, depth * sizeof *stack);
    }
    sites[s].allocs++;
    if (n > sites[s].largest) sites[s].largest = n;
    if (n_big == LIVE_BIG / 2) {
        untracked++;
        return;
    }
    sites[s].live += n;
    at = big_home(p);
    while (live_big[at].ptr) at = (at + 1) & (LIVE_BIG - 1);
    live_big[at] = (struct big){p, n, s};
    n_big++;
}

// Linear-probing delete: pull each later entry of the run back into the
// hole if its home slot does not lie cyclically after the hole, so no
// tombstones are needed.
static void forget_big(void *p) {
    uint64_t at = big_home(p);
    while (live_big[at].ptr != p) {
        if (!live_big[at].ptr) return;  // not tracked: the table was full
        at = (at + 1) & (LIVE_BIG - 1);
    }
    sites[live_big[at].site].live -= live_big[at].size;
    n_big--;
    for (uint64_t next = (at + 1) & (LIVE_BIG - 1); live_big[next].ptr;
         next = (next + 1) & (LIVE_BIG - 1)) {
        uint64_t home = big_home(live_big[next].ptr);
        if (((next - home) & (LIVE_BIG - 1)) >= ((next - at) & (LIVE_BIG - 1))) {
            live_big[at] = live_big[next];
            at = next;
        }
    }
    live_big[at].ptr = NULL;
}

static void counted(void *p) {
    if (!p || __atomic_load_n(&frozen, __ATOMIC_RELAXED)) return;
    int64_t n = (int64_t)malloc_usable_size(p);
    void *stack[DEPTH];
    int depth = 0;
    if (n >= BIG && !capturing) {
        capturing = 1;
        depth = backtrace(stack, DEPTH);
        capturing = 0;
    }
    acquire();
    int k = class_of(n);
    blocks[k]++;
    bytes[k] += n;
    live += n;
    if (depth) note_big(p, n, stack, depth);
    if (live > peak) {
        peak = live;
        if (peak >= table_live + RETAKE) take_tables();
    }
    release();
}

// `n` is the block's usable size, read while it was still allocated; `p`
// is only compared, never dereferenced.
static void uncounted(void *p, int64_t n) {
    if (__atomic_load_n(&frozen, __ATOMIC_RELAXED)) return;
    acquire();
    int k = class_of(n);
    blocks[k]--;
    bytes[k] -= n;
    live -= n;
    if (n >= BIG) forget_big(p);
    release();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    counted(p);
    return p;
}

void *calloc(size_t count, size_t size) {
    void *p = __libc_calloc(count, size);
    counted(p);
    return p;
}

void *realloc(void *p, size_t size) {
    int64_t old = p ? (int64_t)malloc_usable_size(p) : 0;
    void *q = __libc_realloc(p, size);
    if (!q && size) return q;  // failed: `p` is untouched
    if (p) uncounted(p, old);
    counted(q);
    return q;
}

void free(void *p) {
    if (!p) return;
    uncounted(p, (int64_t)malloc_usable_size(p));
    __libc_free(p);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (!align || align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    counted(p);
    *out = p;
    return 0;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    counted(p);
    return p;
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    counted(p);
    return p;
}

static uintptr_t lo, hi;

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
    capturing = 1;
    backtrace(warm, 4);  // loads the unwinder now, not inside a counted call
    capturing = 0;
}

__attribute__((destructor)) static void dump(void) {
    acquire();
    __atomic_store_n(&frozen, 1, __ATOMIC_RELAXED);
    release();
    const char *path = getenv("HEAPPROF_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    dl_iterate_phdr(executable_range, NULL);
    fprintf(out, "peak %lld\ntable %lld\nuntracked %lld\n", (long long)peak,
            (long long)table_live, (long long)untracked);
    for (int k = 0; k < CLASSES; k++)
        if (table_bytes[k] > 0)
            fprintf(out, "class %d %lld %lld\n", k, (long long)table_blocks[k],
                    (long long)table_bytes[k]);
    for (int s = 0; s < n_sites; s++) {
        fprintf(out, "site %lld %lld %lld", (long long)sites[s].allocs,
                (long long)sites[s].largest, (long long)sites[s].live_at_table);
        for (int f = 0; f < sites[s].depth; f++) {
            uintptr_t pc = (uintptr_t)sites[s].stack[f] - 1;
            fprintf(out, " %lx", pc >= lo && pc < hi ? (unsigned long)(pc - lo) : 0UL);
        }
        fputc('\n', out);
    }
    fclose(out);
}
