/**
 * @file
 * Per-process temporary files for tests.
 *
 * ctest runs every discovered test in its own process, many at once
 * under -j. A fixed name under testing::TempDir() is then shared by
 * sibling processes: one process's SetUpTestSuite() can rewrite a file
 * while another is still reading it. tmpPath() instead places each
 * file in a directory owned by the calling process.
 */

#ifndef JORD_TESTS_TMP_PATH_HH
#define JORD_TESTS_TMP_PATH_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace jord::test {

/** A directory named after this process, removed when it exits. */
class ProcessTmpDir
{
  public:
    ProcessTmpDir()
        : owner_(getpid()),
          path_(testing::TempDir() + "jord_test_" + std::to_string(owner_))
    {
        // A dead process with a recycled pid may have left this behind.
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ProcessTmpDir()
    {
        // Death-test children exit through here too; only the owner
        // may clean up.
        std::error_code ec;
        if (getpid() == owner_)
            std::filesystem::remove_all(path_, ec);
    }

    ProcessTmpDir(const ProcessTmpDir &) = delete;
    ProcessTmpDir &operator=(const ProcessTmpDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    pid_t owner_;
    std::string path_;
};

/** Path of @p name inside this process's own temporary directory. */
inline std::string
tmpPath(const std::string &name)
{
    static const ProcessTmpDir dir;
    return dir.path() + "/" + name;
}

} // namespace jord::test

#endif // JORD_TESTS_TMP_PATH_HH
