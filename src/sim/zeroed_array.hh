/**
 * @file
 * Fixed-size array that starts as untouched zero pages.
 *
 * Some tables are large but touched sparsely: the plain-list VMA table
 * preallocates 1 Mi 64-byte VTEs, and the VTD holds sets x ways entries
 * per LLC slice. Filling them element by element faults in every page
 * at construction. This array maps anonymous memory instead, which the
 * kernel supplies zero-filled on first touch, so construction writes
 * nothing and a run pays only for the pages it uses.
 *
 * That is correct only for element types whose value-initialised form
 * is all-zero bytes; the tests check it for every element type used
 * here.
 */

#ifndef JORD_SIM_ZEROED_ARRAY_HH
#define JORD_SIM_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>

namespace jord::sim {

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "zero pages are only a valid T if T is trivially copyable");

  public:
    explicit ZeroedArray(std::size_t size) : size_(size)
    {
        if (size == 0)
            return;
        void *mem = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<T *>(mem);
    }

    ~ZeroedArray()
    {
        if (data_)
            ::munmap(data_, bytes());
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    std::size_t size() const { return size_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    T *data_ = nullptr;
    std::size_t size_;

    std::size_t bytes() const { return size_ * sizeof(T); }
};

} // namespace jord::sim

#endif // JORD_SIM_ZEROED_ARRAY_HH
