/*
 * A SIGPROF sampler to preload into any process (x86-64 and aarch64 Linux).
 *
 * Loaded with LD_PRELOAD, it arms ITIMER_PROF at 1 ms of process CPU time.
 * Each SIGPROF appends the interrupted program counter to a buffer
 * allocated before the timer starts; the handler does nothing else (one
 * atomic add and one store), so it is async-signal-safe and needs no lock.
 * At exit it stops the timer and writes, into the working directory,
 *
 *   prof-PID.pcs   the PCs, native-endian 64-bit words in sample order;
 *   prof-PID.maps  a copy of /proc/self/maps, to map each PC to a file;
 *   prof-PID.vdso  the vDSO's image, whose dynamic symbols name its frames.
 *
 * tools/prof.sh builds it, runs perfbench under it and symbolizes the PCs.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

/* 2^22 samples: over an hour of one busy core at 1 ms. */
#define CAPACITY (1UL << 22)

static uint64_t *pcs;
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *context)
{
    ucontext_t *uc = context;
    unsigned long at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig;
    (void)info;
    if (at >= CAPACITY)
        return;
#if defined(__x86_64__)
    pcs[at] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pcs[at] = (uint64_t)uc->uc_mcontext.pc;
#else
#error "prof.c reads the PC on x86-64 and aarch64 only"
#endif
}

static void write_all(int fd, const void *data, size_t len)
{
    const char *p = data;
    while (len > 0) {
        ssize_t n = write(fd, p, len);
        if (n <= 0)
            return;
        p += n;
        len -= (size_t)n;
    }
}

static int create(const char *suffix)
{
    char path[64];
    snprintf(path, sizeof path, "prof-%d.%s", (int)getpid(), suffix);
    return open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

__attribute__((constructor)) static void prof_start(void)
{
    struct sigaction sa;
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    void *buf = mmap(NULL, CAPACITY * sizeof *pcs, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buf == MAP_FAILED)
        return;
    pcs = buf;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) == 0)
        setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void prof_stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    unsigned long n;
    char line[512];
    FILE *maps;
    int fd;
    if (pcs == NULL)
        return;
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    if (n > CAPACITY)
        n = CAPACITY;
    if ((fd = create("pcs")) >= 0) {
        write_all(fd, pcs, n * sizeof *pcs);
        close(fd);
    }
    maps = fopen("/proc/self/maps", "re");
    if (maps == NULL || (fd = create("maps")) < 0) {
        if (maps != NULL)
            fclose(maps);
        return;
    }
    while (fgets(line, sizeof line, maps) != NULL) {
        unsigned long lo, hi;
        write_all(fd, line, strlen(line));
        if (strstr(line, "[vdso]") != NULL && sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
            int vdso = create("vdso");
            if (vdso >= 0) {
                write_all(vdso, (const void *)lo, hi - lo);
                close(vdso);
            }
        }
    }
    fclose(maps);
    close(fd);
}
