/**
 * @file
 * Self-test of nested-span self time: synthetic timestamps through the
 * same enter/leave path the wrappers use. Exits non-zero on failure.
 */

#include <cmath>
#include <cstdio>

#include "spans.hh"

namespace perfbench {

const WrappedFn kWrapped[] = {{"outer", "A.f"}, {"inner", "B.g"}};
const std::size_t kNumWrapped = 2;

} // namespace perfbench

namespace {

int failures = 0;

void
expect(const char *what, double got, double want)
{
    if (std::fabs(got - want) > 1e-9) {
        std::printf("FAIL %s: got %g, want %g\n", what, got, want);
        ++failures;
    }
}

/** A.f spans [0, 100] and calls B.g over [10, 30] and [40, 45]. */
void
nest()
{
    using namespace perfbench::spans;
    reset();
    int span = open("run", -1, 0);
    enter(0, 0);
    enter(1, 10);
    leave(30);
    enter(1, 40);
    leave(45);
    leave(100);
    close(span);
}

} // namespace

int
main()
{
    using namespace perfbench::spans;
    const std::size_t run = 0, a = 0, b = 1;

    setOverhead(0, 0);
    nest();
    expect("A calls", agg(run, a, topCaller()).calls, 1);
    expect("A incl", agg(run, a, topCaller()).incl, 100);
    expect("A self", agg(run, a, topCaller()).self, 75);
    expect("B calls", agg(run, b, a).calls, 2);
    expect("B incl", agg(run, b, a).incl, 25);
    expect("B self", agg(run, b, a).self, 25);

    // Each child's wrapper costs 1 tick outside its timestamps (the
    // parent's) and 2 inside (its own).
    setOverhead(2, 1);
    nest();
    expect("A self, less wrapper cost", agg(run, a, topCaller()).self,
           100 - 25 - 2 * 1 - 2);
    expect("B self, less wrapper cost", agg(run, b, a).self, 25 - 2 * 2);

    if (failures)
        return 1;
    std::printf("spans self-test passed\n");
    return 0;
}
