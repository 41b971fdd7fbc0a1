#include "ds/batched_tree23.hpp"

#include <algorithm>

#include "ds/batch_prep.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

namespace {
using TaggedKey = prep::Tagged<BatchedTree23::Key>;
}  // namespace

BatchedTree23::BatchedTree23(rt::Scheduler& sched, Batcher::SetupPolicy setup)
    : arenas_(sched.num_workers() + 1), batcher_(sched, *this, setup) {}

batcher::Arena& BatchedTree23::local_arena() {
  const rt::Worker* w = rt::current_worker();
  return arenas_[w == nullptr ? 0 : static_cast<std::size_t>(w->id()) + 1];
}

BatchedTree23::Node* BatchedTree23::make_leaf(Key key) {
  Node* n = static_cast<Node*>(local_arena().allocate(sizeof(Node)));
  n->min_key = key;
  n->height = 0;
  n->dead = false;
  n->nchild = 0;
  return n;
}

BatchedTree23::Node* BatchedTree23::make_internal(Node* const* children,
                                                  int nchild) {
  BATCHER_DASSERT(nchild >= 2 && nchild <= 3, "2-3 fanout");
  Node* n = static_cast<Node*>(local_arena().allocate(sizeof(Node)));
  n->min_key = children[0]->min_key;
  n->height = children[0]->height + 1;
  n->dead = false;
  n->nchild = nchild;
  for (int i = 0; i < nchild; ++i) n->child[i] = children[i];
  return n;
}

const BatchedTree23::Node* BatchedTree23::find_leaf(Key key) const {
  const Node* n = root_;
  if (n == nullptr) return nullptr;
  while (n->height > 0) {
    int i = n->nchild - 1;
    while (i > 0 && n->child[i]->min_key > key) --i;
    n = n->child[i];
  }
  return n;
}

bool BatchedTree23::contains_unsafe(Key key) const {
  const Node* leaf = find_leaf(key);
  return leaf != nullptr && leaf->min_key == key && !leaf->dead;
}

int BatchedTree23::height_unsafe() const {
  return root_ == nullptr ? -1 : root_->height;
}

// ---------------------------------------------------------------------------
// Blocking API.
// ---------------------------------------------------------------------------

bool BatchedTree23::insert(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedTree23::contains(Key key) {
  Op op;
  op.kind = Kind::Contains;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedTree23::erase(Key key) {
  Op op;
  op.kind = Kind::Erase;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedTree23::insert_unsafe(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  OpRecordBase* ops[1] = {&op};
  run_batch(ops, 1);
  return op.found;
}

void BatchedTree23::bulk_build_unsafe(std::span<const Key> sorted_unique_keys) {
  BATCHER_ASSERT(root_ == nullptr, "bulk_build_unsafe requires an empty tree");
  if (sorted_unique_keys.empty()) return;
  root_ = build_from_sorted(sorted_unique_keys);
  live_size_ = sorted_unique_keys.size();
  dead_count_ = 0;
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedTree23::run_batch(OpRecordBase* const* ops, std::size_t count) {
  contains_ops_.clear();
  erase_ops_.clear();
  insert_ops_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    switch (op->kind) {
      case Kind::Contains: contains_ops_.push_back(op); break;
      case Kind::Erase: erase_ops_.push_back(op); break;
      case Kind::Insert: insert_ops_.push_back(op); break;
    }
  }
  // Phase order (same convention as the skip list): contains sees the
  // pre-batch state, then erases, then inserts.
  if (!contains_ops_.empty()) apply_contains(contains_ops_);
  if (!erase_ops_.empty()) apply_erases(erase_ops_);
  if (!insert_ops_.empty()) apply_inserts(insert_ops_);
}

void BatchedTree23::apply_contains(std::vector<Op*>& ops) {
  rt::parallel_for(
      0, static_cast<std::int64_t>(ops.size()),
      [&](std::int64_t i) {
        Op* op = ops[static_cast<std::size_t>(i)];
        op->found = contains_unsafe(op->key);
      },
      /*grain=*/1);
}

void BatchedTree23::apply_erases(std::vector<Op*>& ops) {
  std::vector<TaggedKey> keys(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  par::parallel_sort(keys.data(), static_cast<std::int64_t>(keys.size()));

  // Distinct keys touch distinct leaves, so marking is embarrassingly
  // parallel; duplicate erases in a batch lose deterministically.
  rt::parallel_for(
      0, static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        Op* op = ops[keys[idx].ws];
        if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
          op->found = false;
          return;
        }
        // find_leaf returns a const view; the mark is this batch's exclusive
        // write to that leaf.
        Node* leaf = const_cast<Node*>(find_leaf(keys[idx].key));
        if (leaf != nullptr && leaf->min_key == keys[idx].key && !leaf->dead) {
          leaf->dead = true;
          op->found = true;
        } else {
          op->found = false;
        }
      },
      /*grain=*/1);

  std::size_t erased = 0;
  for (const Op* op : ops) erased += op->found ? 1 : 0;
  dead_count_ += erased;
  live_size_ -= erased;
  if (dead_count_ > live_size_) rebuild();  // more than half dead
}

void BatchedTree23::apply_inserts(std::vector<Op*>& ops) {
  std::vector<TaggedKey> keys(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  par::parallel_sort(keys.data(), static_cast<std::int64_t>(keys.size()));

  // Pre-pass: resolve keys already present (live -> reject, dead ->
  // resurrect) and batch-internal duplicates.  Distinct keys map to distinct
  // leaves, so the resurrect write is race-free.
  std::vector<std::uint8_t> is_new(keys.size(), 0);
  rt::parallel_for(
      0, static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        Op* op = ops[keys[idx].ws];
        if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
          op->found = false;  // duplicate within batch
          return;
        }
        Node* leaf = const_cast<Node*>(find_leaf(keys[idx].key));
        if (leaf != nullptr && leaf->min_key == keys[idx].key) {
          if (leaf->dead) {
            leaf->dead = false;  // resurrect a tombstone
            op->found = true;
            is_new[idx] = 2;     // counts toward live size, not tree growth
          } else {
            op->found = false;
          }
        } else {
          op->found = true;
          is_new[idx] = 1;
        }
      },
      /*grain=*/1);

  std::vector<Key> fresh;
  fresh.reserve(keys.size());
  std::size_t resurrected = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (is_new[i] == 1) fresh.push_back(keys[i].key);
    if (is_new[i] == 2) ++resurrected;
  }
  live_size_ += resurrected;
  dead_count_ -= resurrected;
  if (fresh.empty()) return;

  if (root_ == nullptr) {
    root_ = build_from_sorted(fresh);
  } else if (root_->height == 0) {
    std::vector<Node*> leaves;
    leaves.reserve(fresh.size() + 1);
    bool placed = false;
    for (Key k : fresh) {
      if (!placed && root_->min_key < k) {
        leaves.push_back(root_);
        placed = true;
      }
      leaves.push_back(make_leaf(k));
    }
    if (!placed) leaves.push_back(root_);
    root_ = build_up(std::move(leaves));
  } else {
    std::vector<Node*> top;
    bulk_insert(root_, fresh, top);
    root_ = build_up(std::move(top));
  }
  live_size_ += fresh.size();
}

// ---------------------------------------------------------------------------
// Bulk insertion machinery.
// ---------------------------------------------------------------------------

void BatchedTree23::bulk_insert(Node* node, std::span<const Key> keys,
                                std::vector<Node*>& out) {
  BATCHER_DASSERT(!keys.empty(), "bulk_insert requires keys");
  if (node->height == 1) {
    // Children are leaves; merge the (sorted, fresh) keys in.
    std::vector<Node*> merged;
    merged.reserve(static_cast<std::size_t>(node->nchild) + keys.size());
    std::size_t k = 0;
    for (int c = 0; c < node->nchild; ++c) {
      while (k < keys.size() && keys[k] < node->child[c]->min_key) {
        merged.push_back(make_leaf(keys[k++]));
      }
      merged.push_back(node->child[c]);
    }
    while (k < keys.size()) merged.push_back(make_leaf(keys[k++]));
    regroup(merged, out);
    return;
  }

  // Partition keys among children by router keys: child i takes keys in
  // [child[i]->min_key, child[i+1]->min_key); the leftmost child also takes
  // keys below its own minimum.
  std::size_t cut[4];
  cut[0] = 0;
  cut[static_cast<std::size_t>(node->nchild)] = keys.size();
  for (int i = 1; i < node->nchild; ++i) {
    cut[i] = static_cast<std::size_t>(
        std::lower_bound(keys.begin(), keys.end(), node->child[i]->min_key) -
        keys.begin());
  }

  std::vector<Node*> results[3];
  auto recurse_child = [&](int i) {
    const std::span<const Key> part = keys.subspan(cut[i], cut[i + 1] - cut[i]);
    if (part.empty()) {
      results[i].push_back(node->child[i]);  // untouched subtree passes through
    } else {
      bulk_insert(node->child[i], part, results[i]);
    }
  };
  // Disjoint subtrees: recurse in parallel (binary forking).
  if (node->nchild == 2) {
    rt::parallel_invoke([&] { recurse_child(0); }, [&] { recurse_child(1); });
  } else {
    rt::parallel_invoke([&] { recurse_child(0); },
                        [&] {
                          rt::parallel_invoke([&] { recurse_child(1); },
                                              [&] { recurse_child(2); });
                        });
  }

  std::vector<Node*> merged;
  merged.reserve(results[0].size() + results[1].size() + results[2].size());
  for (int i = 0; i < node->nchild; ++i) {
    merged.insert(merged.end(), results[i].begin(), results[i].end());
  }
  regroup(merged, out);
}

void BatchedTree23::regroup(const std::vector<Node*>& nodes,
                            std::vector<Node*>& out) {
  const std::size_t c = nodes.size();
  if (c == 1) {
    out.push_back(nodes[0]);
    return;
  }
  // Deterministic grouping into 2s and 3s:
  //   c % 3 == 0 -> all groups of 3
  //   c % 3 == 2 -> groups of 3, final group of 2
  //   c % 3 == 1 -> groups of 3, final two groups of 2 (needs c >= 4; c == 1
  //                 was handled above)
  std::size_t i = 0;
  const std::size_t rem = c % 3;
  const std::size_t threes = (rem == 1) ? (c - 4) / 3 : c / 3;
  for (std::size_t g = 0; g < threes; ++g, i += 3) {
    Node* kids[3] = {nodes[i], nodes[i + 1], nodes[i + 2]};
    out.push_back(make_internal(kids, 3));
  }
  while (i < c) {
    BATCHER_DASSERT(c - i >= 2, "regroup remainder must be 2 or 4");
    Node* kids[2] = {nodes[i], nodes[i + 1]};
    out.push_back(make_internal(kids, 2));
    i += 2;
  }
}

BatchedTree23::Node* BatchedTree23::build_up(std::vector<Node*> level) {
  while (level.size() > 1) {
    std::vector<Node*> next;
    next.reserve(level.size() / 2 + 1);
    regroup(level, next);
    level = std::move(next);
  }
  return level[0];
}

// ---------------------------------------------------------------------------
// Tombstone rebuild.
// ---------------------------------------------------------------------------

std::size_t BatchedTree23::count_live(const Node* node) const {
  if (node->height == 0) return node->dead ? 0 : 1;
  std::size_t total = 0;
  for (int i = 0; i < node->nchild; ++i) total += count_live(node->child[i]);
  return total;
}

void BatchedTree23::collect_live(const Node* node, Key* out) const {
  // In-order sequential collect; rebuilds are rare (amortized against the
  // erases that triggered them), so a simple traversal is fine.
  std::size_t pos = 0;
  struct Frame {
    const Node* node;
    int next_child;
  };
  std::vector<Frame> stack;
  stack.push_back({node, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.node->height == 0) {
      if (!f.node->dead) out[pos++] = f.node->min_key;
      stack.pop_back();
      continue;
    }
    if (f.next_child >= f.node->nchild) {
      stack.pop_back();
      continue;
    }
    const Node* child = f.node->child[f.next_child++];
    stack.push_back({child, 0});
  }
}

BatchedTree23::Node* BatchedTree23::build_from_sorted(
    std::span<const Key> keys) {
  BATCHER_DASSERT(!keys.empty(), "build_from_sorted requires keys");
  std::vector<Node*> level(keys.size());
  rt::parallel_for(0, static_cast<std::int64_t>(keys.size()),
                   [&](std::int64_t i) {
                     level[static_cast<std::size_t>(i)] =
                         make_leaf(keys[static_cast<std::size_t>(i)]);
                   });
  return build_up(std::move(level));
}

void BatchedTree23::rebuild() {
  if (root_ == nullptr) return;
  std::vector<Key> live(live_size_);
  if (live_size_ > 0) collect_live(root_, live.data());
  // Fresh arenas: the old nodes (live and dead alike) are dropped wholesale.
  std::vector<Arena> old(arenas_.size());
  old.swap(arenas_);
  root_ = live.empty() ? nullptr : build_from_sorted(live);
  dead_count_ = 0;
  // `old` frees every pre-rebuild node here.
}

// ---------------------------------------------------------------------------
// Invariant checking.
// ---------------------------------------------------------------------------

bool BatchedTree23::check_node(const Node* node, int expected_height) const {
  if (node->height != expected_height) return false;
  if (node->height == 0) return true;
  if (node->nchild < 2 || node->nchild > 3) return false;
  if (node->min_key != node->child[0]->min_key) return false;
  for (int i = 0; i < node->nchild; ++i) {
    if (i > 0 && !(node->child[i - 1]->min_key < node->child[i]->min_key)) {
      return false;
    }
    if (!check_node(node->child[i], expected_height - 1)) return false;
  }
  return true;
}

bool BatchedTree23::check_invariants() const {
  if (root_ == nullptr) return live_size_ == 0;
  if (!check_node(root_, root_->height)) return false;
  // Leaf count (live + dead) must match the bookkeeping.
  std::size_t live = count_live(root_);
  return live == live_size_;
}

}  // namespace batcher::ds
