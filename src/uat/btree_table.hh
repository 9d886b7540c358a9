/**
 * @file
 * B-tree VMA table: the Jord_BT ablation (Fig. 13).
 *
 * A B+tree keyed by VMA base address, with one 64-byte block per node
 * (order 8). Lookups traverse root-to-leaf and then the VTE block, so
 * the VLB miss penalty grows from one block access (~2 ns) to a node
 * path (~20 ns); inserts and removes split/merge nodes, which is where
 * the paper's "+167% PrivLib VMA-management time" comes from.
 */

#ifndef JORD_UAT_BTREE_TABLE_HH
#define JORD_UAT_BTREE_TABLE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "uat/vma_table.hh"

namespace jord::uat {

/** Max keys per B+tree node (fits a 64 B block with 8 B keys). */
inline constexpr unsigned kBtreeOrder = 8;

/** Minimum keys in a non-root node. An internal split of a full node
 * yields floor((order - 1) / 2) keys on the right, so the fill floor is
 * order/2 - 1. */
inline constexpr unsigned kBtreeMinFill = kBtreeOrder / 2 - 1;

/** Region where B-tree nodes live. */
inline constexpr sim::Addr kBtreeNodeBase = 0x2100'0000'0000ull;
/** Region where B-tree VTE payloads live. */
inline constexpr sim::Addr kBtreeVteBase = 0x2200'0000'0000ull;

/**
 * B+tree organisation of the VMA table.
 */
class BTreeVmaTable : public VmaTableBase
{
  public:
    explicit BTreeVmaTable(const VaEncoding &encoding);
    ~BTreeVmaTable() override;

    sim::Addr baseAddr() const override { return kBtreeNodeBase; }
    bool contains(sim::Addr addr) const override;
    TableWalk walk(sim::Addr va) const override;
    Vte *vteFor(sim::Addr vma_base) override;
    sim::Addr vteAddrOf(sim::Addr vma_base) const override;
    TableUpdate noteInsert(sim::Addr vma_base) override;
    TableUpdate noteRemove(sim::Addr vma_base) override;
    std::uint64_t numValid() const override { return numValid_; }

    /** Tree height (leaf depth + 1); exposed for tests. */
    unsigned height() const;

    /** Verify B+tree invariants (key order, fill factors); for tests. */
    bool checkInvariants() const;

    const VaEncoding &encoding() const { return encoding_; }

  private:
    struct Node;

    VaEncoding encoding_;
    std::unique_ptr<Node> root_;
    std::uint64_t numValid_ = 0;
    sim::Addr nextNodeAddr_;

    /** VTE payload pool with free-slot recycling. */
    std::vector<Vte> vtePool_;
    std::vector<std::uint32_t> vteFree_;

    std::uint32_t allocVte();
    void freeVte(std::uint32_t idx);

    Node *findLeaf(sim::Addr key, WalkPath &path) const;
    void insertIntoLeaf(Node *leaf, sim::Addr key, std::uint32_t vte_idx,
                        TableUpdate &upd);
    void splitChild(Node *parent, unsigned child_pos, TableUpdate &upd);
    bool removeKey(Node *node, sim::Addr key, TableUpdate &upd);
    void rebalanceChild(Node *parent, unsigned child_pos,
                        TableUpdate &upd);
    bool checkNode(const Node *node, sim::Addr lo, sim::Addr hi,
                   bool is_root, int leaf_depth, int depth) const;
    int leafDepth(const Node *node) const;
};

} // namespace jord::uat

#endif // JORD_UAT_BTREE_TABLE_HH
