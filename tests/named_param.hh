/**
 * @file
 * A value-parameterized test's parameter that prints as a chosen name.
 *
 * gtest_discover_tests names each ctest job after the printed
 * parameter.  An enum prints as gtest's byte dump ("1-byte object
 * <04>"), so a change to the enum's width renames its jobs; a Named
 * value prints as its [A-Za-z0-9_] name instead.  (A gtest name
 * generator does not help: CMake 3.25 then keeps the whole
 * "# GetParam() = ..." comment, byte dump included, in the job name.)
 * Named converts back to the value, so a test body reads GetParam()
 * as before.
 */

#ifndef PSM_TESTS_NAMED_PARAM_HH
#define PSM_TESTS_NAMED_PARAM_HH

#include <ostream>

namespace psm
{

template <typename T>
struct Named
{
    T value;
    const char *name;

    operator T() const { return value; }
};

template <typename T>
void
PrintTo(const Named<T> &param, std::ostream *os)
{
    *os << param.name;
}

} // namespace psm

#endif // PSM_TESTS_NAMED_PARAM_HH
