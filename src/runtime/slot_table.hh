/**
 * @file
 * Chunked slot storage with a free list, for the worker's requests and
 * invocations.
 *
 * A slot is a 32-bit index that queues and event closures carry in
 * place of the record itself. Records live in fixed-size chunks, so a
 * reference to one stays valid while later take() calls grow the table:
 * an executor runs an invocation through a reference while the children
 * it issues take request slots. Releasing a slot does not destroy its
 * record, so a reused record keeps its vectors' capacity and a
 * steady-state run allocates nothing.
 */

#ifndef JORD_RUNTIME_SLOT_TABLE_HH
#define JORD_RUNTIME_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace jord::runtime {

template <typename T, std::uint32_t ChunkSize>
class SlotTable
{
  public:
    T &
    operator[](std::uint32_t slot)
    {
        return chunks_[slot / ChunkSize][slot % ChunkSize];
    }

    /** Take a free slot, most recently released first. Its record
     * holds whatever its previous user left there. */
    std::uint32_t
    take()
    {
        if (!free_.empty()) {
            std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        if (used_ == chunks_.size() * ChunkSize)
            chunks_.push_back(std::make_unique<T[]>(ChunkSize));
        return used_++;
    }

    void release(std::uint32_t slot) { free_.push_back(slot); }

    /** Slots taken and not yet released. */
    std::size_t live() const { return used_ - free_.size(); }

    /** Release every slot; records and chunks stay for reuse. */
    void
    clear()
    {
        free_.clear();
        used_ = 0;
    }

  private:
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<std::uint32_t> free_;
    /** Slots handed out since clear(); [used_, end) were never taken. */
    std::uint32_t used_ = 0;
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_SLOT_TABLE_HH
