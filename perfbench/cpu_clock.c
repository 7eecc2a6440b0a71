/* CPU time of the calling thread, in nanoseconds. With paravirtual steal
   accounting the kernel leaves out the time the host ran something else
   on this virtual CPU, which a wall clock cannot. */

#include <stdint.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

int64_t perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

value perfbench_thread_cpu_ns_byte(value unit)
{
  return caml_copy_int64(perfbench_thread_cpu_ns(unit));
}
