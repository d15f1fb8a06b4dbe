/* Statistical PC sampler for hosts without `perf`: an LD_PRELOAD library.
 *
 *   cc -O2 -shared -fPIC -o pc_sampler.so tools/prof/pc_sampler.c
 *   LD_PRELOAD=$PWD/pc_sampler.so PC_SAMPLER_OUT=/tmp/run ./liquid_bench ...
 *   python3 tools/prof/symbolize.py /tmp/run.<pid>
 *
 * On load it arms ITIMER_PROF (process CPU time) and records, on every
 * SIGPROF, the program counter the signal interrupted into a static buffer.
 * The handler allocates nothing and does no I/O.  At exit it writes two
 * files next to PC_SAMPLER_OUT (default "pc_samples"):
 *
 *   <out>.<pid>.pcs   one sampled PC per line, in hex
 *   <out>.<pid>.maps  a copy of /proc/self/maps, to map PCs to objects
 *
 * It asks for kHz samples per second of CPU time.  The kernel rounds the
 * interval up to its timer tick, so the achieved rate can be lower; the
 * summary line on stderr gives the sample count and the achieved rate.
 * Samples past the buffer (kMaxSamples) are counted but dropped.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kHz = 1000 };
enum { kMaxSamples = 1 << 22 }; /* 32 MiB of PCs: ~4.6 h at 250 Hz */

static uintptr_t g_pcs[kMaxSamples];
static long g_count; /* slots claimed, may pass kMaxSamples */
static struct timespec g_start;

static uintptr_t InterruptedPc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
}

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  /* Several threads can take a SIGPROF at once: claim a slot atomically
   * (lock-free, so async-signal-safe). */
  const long slot = __atomic_fetch_add(&g_count, 1, __ATOMIC_RELAXED);
  if (slot < kMaxSamples) {
    g_pcs[slot] = InterruptedPc((const ucontext_t*)context);
  }
}

static void CopyFile(const char* from, const char* to) {
  FILE* in = fopen(from, "r");
  FILE* out = fopen(to, "w");
  if (in != NULL && out != NULL) {
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, out);
  }
  if (in != NULL) fclose(in);
  if (out != NULL) fclose(out);
}

__attribute__((constructor)) static void StartSampling(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = 1000000 / kHz;
  timer.it_value = timer.it_interval;
  clock_gettime(CLOCK_MONOTONIC, &g_start);
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void StopSampling(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  struct timespec now;
  clock_gettime(CLOCK_MONOTONIC, &now);
  const double wall = (double)(now.tv_sec - g_start.tv_sec) +
                      1e-9 * (double)(now.tv_nsec - g_start.tv_nsec);

  const char* prefix = getenv("PC_SAMPLER_OUT");
  if (prefix == NULL || prefix[0] == '\0') prefix = "pc_samples";
  char path[4096];
  snprintf(path, sizeof path, "%s.%ld.maps", prefix, (long)getpid());
  CopyFile("/proc/self/maps", path);

  snprintf(path, sizeof path, "%s.%ld.pcs", prefix, (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  const long claimed = __atomic_load_n(&g_count, __ATOMIC_RELAXED);
  const long count = claimed < kMaxSamples ? claimed : kMaxSamples;
  for (long i = 0; i < count; ++i) {
    fprintf(out, "%lx\n", (unsigned long)g_pcs[i]);
  }
  fclose(out);
  fprintf(stderr,
          "pc_sampler: %ld samples (%ld dropped) in %.2f s wall, "
          "%.0f Hz of wall -> %s\n",
          count, claimed - count, wall, wall > 0 ? count / wall : 0.0, path);
}
