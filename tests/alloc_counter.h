#ifndef PTP_TESTS_ALLOC_COUNTER_H_
#define PTP_TESTS_ALLOC_COUNTER_H_

#include <cstddef>

namespace ptp {
namespace test {

/// Number of global operator new calls (scalar, array, and their nothrow
/// forms) so far in a test binary linking alloc_counter.cc. The
/// disabled-fast-path tests read it before and after a hot loop: an
/// instrumentation sink that is switched off must not allocate.
size_t AllocCount();

}  // namespace test
}  // namespace ptp

#endif  // PTP_TESTS_ALLOC_COUNTER_H_
