/**
 * @file
 * The benchmark's reference kernel: a fixed amount of host work that
 * shares no code with the program it measures.
 *
 * On a shared host (a VM whose physical cores other tenants load),
 * speed drifts by tens of percent within seconds and by up to 2x
 * over minutes. The driver runs the kernel between slices of every grid
 * repeat and between set-ups, and scales each slice's host time by
 * kReferenceNominalS over the kernel time measured around it, so the
 * reported host times read as if the host ran at its reference speed
 * (README.md, "Host speed"). The kernel mimics a discrete-event
 * simulator: a binary-heap calendar, random reads and writes of a
 * record table larger than the private caches, and branchy floating
 * point. It lives in the benchmark, so no change to the program can
 * speed it up.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>

namespace perfbench {

/** Host seconds of one kernel run on a quiet reference host. */
constexpr double kReferenceNominalS = 0.05;

/** One kernel run. */
struct ReferenceRun
{
    double seconds = 0.0;
    /** The same on every run; returned so the work cannot be dropped. */
    uint64_t checksum = 0;
};

/** Run the kernel once; the work is the same on every call. */
ReferenceRun runReferenceKernel();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
