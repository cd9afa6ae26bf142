/* CPU affinity for the pipeline benchmark; see [pin_to_one_cpu] in
   pipebench.ml for why. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Restrict the calling thread, and every process it forks afterwards,
   to the lowest-numbered CPU it may run on.  Returns that CPU, or -1
   when the affinity calls fail. */
value pipebench_pin_to_one_cpu(value unit)
{
  cpu_set_t allowed, one;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1);
    }
  }
  return Val_int(-1);
}
