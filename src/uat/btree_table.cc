#include "uat/btree_table.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jord::uat {

using sim::Addr;

/**
 * B+tree node. Internal nodes store keys[i] = smallest key in
 * children[i+1]'s subtree; leaves store (key, vteIdx) pairs.
 */
struct BTreeVmaTable::Node {
    bool leaf = true;
    std::vector<Addr> keys;
    std::vector<std::unique_ptr<Node>> children; // internal only
    std::vector<std::uint32_t> values;           // leaf only
    Addr nodeAddr = 0;
};

BTreeVmaTable::BTreeVmaTable(const VaEncoding &encoding)
    : encoding_(encoding), nextNodeAddr_(kBtreeNodeBase)
{
    root_ = std::make_unique<Node>();
    root_->nodeAddr = nextNodeAddr_;
    nextNodeAddr_ += sim::kCacheBlockBytes;
}

BTreeVmaTable::~BTreeVmaTable() = default;

bool
BTreeVmaTable::contains(Addr addr) const
{
    return (addr >= kBtreeNodeBase && addr < nextNodeAddr_) ||
           (addr >= kBtreeVteBase &&
            addr < kBtreeVteBase +
                       vtePool_.size() * sim::kCacheBlockBytes);
}

std::uint32_t
BTreeVmaTable::allocVte()
{
    if (!vteFree_.empty()) {
        std::uint32_t idx = vteFree_.back();
        vteFree_.pop_back();
        vtePool_[idx] = Vte{};
        return idx;
    }
    vtePool_.emplace_back();
    return static_cast<std::uint32_t>(vtePool_.size() - 1);
}

void
BTreeVmaTable::freeVte(std::uint32_t idx)
{
    vtePool_[idx] = Vte{};
    vteFree_.push_back(idx);
}

BTreeVmaTable::Node *
BTreeVmaTable::findLeaf(Addr key, WalkPath &path) const
{
    Node *node = root_.get();
    while (true) {
        path.push_back(node->nodeAddr);
        if (node->leaf)
            return node;
        // First child whose subtree may contain the key.
        unsigned pos = static_cast<unsigned>(
            std::upper_bound(node->keys.begin(), node->keys.end(), key) -
            node->keys.begin());
        node = node->children[pos].get();
    }
}

TableWalk
BTreeVmaTable::walk(Addr va) const
{
    TableWalk out;
    auto base = encoding_.vmaBase(va);
    if (!base)
        return out;
    Node *leaf = findLeaf(*base, out.readAddrs);
    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(),
                               *base);
    if (it == leaf->keys.end() || *it != *base) {
        // Key absent: the walker learns the VA is unmapped only after
        // the full traversal; report the path but no VTE.
        return out;
    }
    std::uint32_t idx =
        leaf->values[static_cast<unsigned>(it - leaf->keys.begin())];
    out.vteAddr = kBtreeVteBase + idx * sim::kCacheBlockBytes;
    out.readAddrs.push_back(out.vteAddr);
    out.vte = &vtePool_[idx];
    out.vmaBase = *base;
    return out;
}

Vte *
BTreeVmaTable::vteFor(Addr vma_base)
{
    TableWalk w = walk(vma_base);
    return w.vte ? const_cast<Vte *>(w.vte) : nullptr;
}

Addr
BTreeVmaTable::vteAddrOf(Addr vma_base) const
{
    return walk(vma_base).vteAddr;
}

void
BTreeVmaTable::splitChild(Node *parent, unsigned child_pos,
                          TableUpdate &upd)
{
    Node *child = parent->children[child_pos].get();
    auto sibling = std::make_unique<Node>();
    sibling->leaf = child->leaf;
    sibling->nodeAddr = nextNodeAddr_;
    nextNodeAddr_ += sim::kCacheBlockBytes;

    unsigned mid = kBtreeOrder / 2;
    Addr up_key;
    if (child->leaf) {
        up_key = child->keys[mid];
        sibling->keys.assign(child->keys.begin() + mid,
                             child->keys.end());
        sibling->values.assign(child->values.begin() + mid,
                               child->values.end());
        child->keys.resize(mid);
        child->values.resize(mid);
    } else {
        up_key = child->keys[mid];
        sibling->keys.assign(child->keys.begin() + mid + 1,
                             child->keys.end());
        for (unsigned i = mid + 1; i < child->children.size(); ++i)
            sibling->children.push_back(std::move(child->children[i]));
        child->keys.resize(mid);
        child->children.resize(mid + 1);
    }

    parent->keys.insert(parent->keys.begin() + child_pos, up_key);
    parent->children.insert(parent->children.begin() + child_pos + 1,
                            std::move(sibling));
    upd.writeAddrs.push_back(child->nodeAddr);
    upd.writeAddrs.push_back(
        parent->children[child_pos + 1]->nodeAddr);
    upd.writeAddrs.push_back(parent->nodeAddr);
}

void
BTreeVmaTable::insertIntoLeaf(Node *leaf, Addr key,
                              std::uint32_t vte_idx, TableUpdate &upd)
{
    auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
    unsigned pos = static_cast<unsigned>(it - leaf->keys.begin());
    leaf->keys.insert(it, key);
    leaf->values.insert(leaf->values.begin() + pos, vte_idx);
    upd.writeAddrs.push_back(leaf->nodeAddr);
}

TableUpdate
BTreeVmaTable::noteInsert(Addr vma_base)
{
    TableUpdate upd;
    // Root split first if full (preemptive split insertion).
    if (root_->keys.size() >= kBtreeOrder) {
        auto new_root = std::make_unique<Node>();
        new_root->leaf = false;
        new_root->nodeAddr = nextNodeAddr_;
        nextNodeAddr_ += sim::kCacheBlockBytes;
        new_root->children.push_back(std::move(root_));
        root_ = std::move(new_root);
        splitChild(root_.get(), 0, upd);
    }

    Node *node = root_.get();
    while (!node->leaf) {
        upd.readAddrs.push_back(node->nodeAddr);
        unsigned pos = static_cast<unsigned>(
            std::upper_bound(node->keys.begin(), node->keys.end(),
                             vma_base) -
            node->keys.begin());
        Node *child = node->children[pos].get();
        if (child->keys.size() >= kBtreeOrder) {
            splitChild(node, pos, upd);
            if (vma_base >= node->keys[pos])
                ++pos;
            child = node->children[pos].get();
        }
        node = child;
    }
    upd.readAddrs.push_back(node->nodeAddr);

    auto it = std::lower_bound(node->keys.begin(), node->keys.end(),
                               vma_base);
    if (it != node->keys.end() && *it == vma_base)
        return upd; // duplicate: caller misuse, report !ok

    insertIntoLeaf(node, vma_base, allocVte(), upd);
    ++numValid_;
    upd.ok = true;
    return upd;
}

void
BTreeVmaTable::rebalanceChild(Node *parent, unsigned child_pos,
                              TableUpdate &upd)
{
    const unsigned min_fill = kBtreeMinFill;
    Node *child = parent->children[child_pos].get();
    Node *left = child_pos > 0 ? parent->children[child_pos - 1].get()
                               : nullptr;
    Node *right = child_pos + 1 < parent->children.size()
                      ? parent->children[child_pos + 1].get()
                      : nullptr;

    if (left && left->keys.size() > min_fill) {
        // Borrow from the left sibling.
        if (child->leaf) {
            child->keys.insert(child->keys.begin(), left->keys.back());
            child->values.insert(child->values.begin(),
                                 left->values.back());
            left->keys.pop_back();
            left->values.pop_back();
            parent->keys[child_pos - 1] = child->keys.front();
        } else {
            child->keys.insert(child->keys.begin(),
                               parent->keys[child_pos - 1]);
            parent->keys[child_pos - 1] = left->keys.back();
            left->keys.pop_back();
            child->children.insert(child->children.begin(),
                                   std::move(left->children.back()));
            left->children.pop_back();
        }
        upd.writeAddrs.push_back(left->nodeAddr);
        upd.writeAddrs.push_back(child->nodeAddr);
        upd.writeAddrs.push_back(parent->nodeAddr);
        return;
    }
    if (right && right->keys.size() > min_fill) {
        // Borrow from the right sibling.
        if (child->leaf) {
            child->keys.push_back(right->keys.front());
            child->values.push_back(right->values.front());
            right->keys.erase(right->keys.begin());
            right->values.erase(right->values.begin());
            parent->keys[child_pos] = right->keys.front();
        } else {
            child->keys.push_back(parent->keys[child_pos]);
            parent->keys[child_pos] = right->keys.front();
            right->keys.erase(right->keys.begin());
            child->children.push_back(std::move(right->children.front()));
            right->children.erase(right->children.begin());
        }
        upd.writeAddrs.push_back(right->nodeAddr);
        upd.writeAddrs.push_back(child->nodeAddr);
        upd.writeAddrs.push_back(parent->nodeAddr);
        return;
    }

    // Merge with a sibling.
    unsigned left_pos = left ? child_pos - 1 : child_pos;
    Node *a = parent->children[left_pos].get();
    Node *b = parent->children[left_pos + 1].get();
    if (a->leaf) {
        a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
        a->values.insert(a->values.end(), b->values.begin(),
                         b->values.end());
    } else {
        a->keys.push_back(parent->keys[left_pos]);
        a->keys.insert(a->keys.end(), b->keys.begin(), b->keys.end());
        for (auto &grand : b->children)
            a->children.push_back(std::move(grand));
    }
    upd.writeAddrs.push_back(a->nodeAddr);
    upd.writeAddrs.push_back(parent->nodeAddr);
    parent->keys.erase(parent->keys.begin() + left_pos);
    parent->children.erase(parent->children.begin() + left_pos + 1);
}

bool
BTreeVmaTable::removeKey(Node *node, Addr key, TableUpdate &upd)
{
    upd.readAddrs.push_back(node->nodeAddr);
    if (node->leaf) {
        auto it = std::lower_bound(node->keys.begin(), node->keys.end(),
                                   key);
        if (it == node->keys.end() || *it != key)
            return false;
        unsigned pos = static_cast<unsigned>(it - node->keys.begin());
        freeVte(node->values[pos]);
        node->keys.erase(it);
        node->values.erase(node->values.begin() + pos);
        upd.writeAddrs.push_back(node->nodeAddr);
        return true;
    }

    unsigned pos = static_cast<unsigned>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    Node *child = node->children[pos].get();
    bool removed = removeKey(child, key, upd);
    if (removed && child->keys.size() < kBtreeMinFill)
        rebalanceChild(node, pos, upd);
    return removed;
}

TableUpdate
BTreeVmaTable::noteRemove(Addr vma_base)
{
    TableUpdate upd;
    if (!removeKey(root_.get(), vma_base, upd))
        return upd;
    // Shrink the root when it collapses to a single child.
    if (!root_->leaf && root_->children.size() == 1)
        root_ = std::move(root_->children[0]);
    --numValid_;
    upd.ok = true;
    return upd;
}

unsigned
BTreeVmaTable::height() const
{
    unsigned h = 1;
    const Node *node = root_.get();
    while (!node->leaf) {
        node = node->children[0].get();
        ++h;
    }
    return h;
}

int
BTreeVmaTable::leafDepth(const Node *node) const
{
    int d = 0;
    while (!node->leaf) {
        node = node->children[0].get();
        ++d;
    }
    return d;
}

bool
BTreeVmaTable::checkNode(const Node *node, Addr lo, Addr hi, bool is_root,
                         int leaf_depth, int depth) const
{
    if (!std::is_sorted(node->keys.begin(), node->keys.end()))
        return false;
    for (Addr key : node->keys)
        if (key < lo || key >= hi)
            return false;
    if (!is_root && node->keys.size() < kBtreeMinFill &&
        !(node->leaf && numValid_ < kBtreeMinFill)) {
        return false;
    }
    if (node->leaf) {
        if (depth != leaf_depth)
            return false;
        return node->values.size() == node->keys.size();
    }
    if (node->children.size() != node->keys.size() + 1)
        return false;
    for (unsigned i = 0; i < node->children.size(); ++i) {
        Addr child_lo = i == 0 ? lo : node->keys[i - 1];
        Addr child_hi = i == node->keys.size() ? hi : node->keys[i];
        if (!checkNode(node->children[i].get(), child_lo, child_hi,
                       false, leaf_depth, depth + 1)) {
            return false;
        }
    }
    return true;
}

bool
BTreeVmaTable::checkInvariants() const
{
    return checkNode(root_.get(), 0, ~0ull, true, leafDepth(root_.get()),
                     0);
}

} // namespace jord::uat
