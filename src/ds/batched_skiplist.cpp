#include "ds/batched_skiplist.hpp"

#include <algorithm>
#include <cstring>

#include "parallel/prefix_sum.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

namespace {

using TaggedKey = prep::Tagged<BatchedSkipList::Key>;

// SplitMix64-style mixer: per-batch seed + record index -> height bits, so
// the sort-merge path can draw all heights in parallel while staying
// deterministic for a given (seed, batch) pair.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BatchedSkipList::BatchedSkipList(rt::Scheduler& sched, std::uint64_t seed,
                                 Batcher::SetupPolicy setup)
    : rng_(seed), batcher_(sched, *this, setup) {
  head_ = allocate_node(/*key=*/0, kMaxHeight);
  for (int l = 0; l < kMaxHeight; ++l) head_->next[l] = nullptr;
}

BatchedSkipList::~BatchedSkipList() {
  for (char* block : arena_blocks_) ::operator delete[](block);
}

char* BatchedSkipList::allocate_bulk(std::size_t bytes) {
  if (arena_used_ + bytes > arena_cap_) {
    const std::size_t block_size = std::max<std::size_t>(bytes, 1u << 20);
    arena_blocks_.push_back(
        static_cast<char*>(::operator new[](block_size)));
    arena_used_ = 0;
    arena_cap_ = block_size;
  }
  char* mem = arena_blocks_.back() + arena_used_;
  arena_used_ += bytes;
  return mem;
}

BatchedSkipList::Node* BatchedSkipList::allocate_node(Key key, int height) {
  const std::size_t bytes =
      sizeof(Node) + sizeof(Node*) * static_cast<std::size_t>(height - 1);
  // Bump allocation with 16-byte alignment.
  const std::size_t aligned = (bytes + 15) & ~std::size_t{15};
  Node* node = reinterpret_cast<Node*>(allocate_bulk(aligned));
  node->key = key;
  node->height = height;
  node->erased = false;
  return node;
}

int BatchedSkipList::height_from_bits(std::uint64_t bits) {
  // Geometric with p = 1/2, capped.  Counting trailing ones of a uniform
  // word gives the same distribution in O(1).
  int h = 1;
  while (h < kMaxHeight && (bits >> (h - 1) & 1u)) ++h;
  return h;
}

int BatchedSkipList::random_height() { return height_from_bits(rng_.next()); }

void BatchedSkipList::find_preds(Key key, Node** preds) const {
  Node* cur = head_;
  for (int l = kMaxHeight - 1; l >= 0; --l) {
    if (l < height_) {
      while (cur->next[l] != nullptr && cur->next[l]->key < key) {
        cur = cur->next[l];
      }
    }
    preds[l] = cur;
  }
}

void BatchedSkipList::find_preds_group(const Key* keys, Node** const* preds,
                                       Node** const* succs,
                                       std::size_t n) const {
  BATCHER_ASSERT(n <= kSearchGroup, "search group larger than kSearchGroup");
  Node* cur[kSearchGroup] = {};
  int level[kSearchGroup] = {};
  std::size_t moving[kSearchGroup] = {};  // unfinished cursors, in key order
  for (std::size_t j = 0; j < n; ++j) {
    for (int l = height_; l < kMaxHeight; ++l) {
      preds[j][l] = head_;
      if (succs != nullptr) succs[j][l] = head_->next[l];
    }
    cur[j] = head_;
    level[j] = height_ - 1;
    moving[j] = j;
  }
  // One round moves every cursor one hop: right past a smaller key, or down
  // after recording the level.  Whichever node a cursor compares next is
  // prefetched now, so the group's misses are in flight together and the
  // next round finds them in cache.
  std::size_t live = n;
  while (live > 0) {
    std::size_t kept = 0;
    for (std::size_t a = 0; a < live; ++a) {
      const std::size_t j = moving[a];
      Node* c = cur[j];
      int l = level[j];
      Node* next = c->next[l];
      if (next != nullptr && next->key < keys[j]) {
        cur[j] = next;
        __builtin_prefetch(next->next[l]);
        moving[kept++] = j;
        continue;
      }
      // Record level l and every lower level with the same successor: those
      // compare against a node already known not to be smaller.
      for (;;) {
        preds[j][l] = c;
        if (succs != nullptr) succs[j][l] = next;
        if (--l < 0) break;
        Node* down = c->next[l];
        if (down != next) {
          __builtin_prefetch(down);
          break;
        }
      }
      if (l >= 0) {
        level[j] = l;
        moving[kept++] = j;
      }
    }
    live = kept;
  }
}

template <class OnDup, class OnResult>
void BatchedSkipList::search_sorted(const TaggedKey* keys, std::size_t nk,
                                    bool with_succs, const OnDup& on_dup,
                                    const OnResult& on_result) {
  rt::parallel_for_blocked(
      0, static_cast<std::int64_t>(nk),
      [&](std::int64_t lo, std::int64_t hi) {
        Key group[kSearchGroup] = {};
        Node** preds[kSearchGroup] = {};
        Node** succs[kSearchGroup] = {};
        std::size_t at[kSearchGroup] = {};
        std::size_t g = 0;
        for (auto idx = static_cast<std::size_t>(lo);
             idx < static_cast<std::size_t>(hi); ++idx) {
          if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
            on_dup(idx);
            continue;
          }
          group[g] = keys[idx].key;
          preds[g] = &pred_scratch_[idx * kMaxHeight];
          if (with_succs) succs[g] = &succ_scratch_[idx * kMaxHeight];
          at[g++] = idx;
        }
        find_preds_group(group, preds, with_succs ? succs : nullptr, g);
        for (std::size_t j = 0; j < g; ++j) {
          Node* hit = preds[j][0]->next[0];
          on_result(at[j],
                    hit != nullptr && hit->key == group[j] ? hit : nullptr);
        }
      },
      /*grain=*/kSearchGroup);
}

BatchedSkipList::Node* BatchedSkipList::find_node(Key key) const {
  Node* cur = head_;
  for (int l = height_ - 1; l >= 0; --l) {
    while (cur->next[l] != nullptr && cur->next[l]->key < key) {
      cur = cur->next[l];
    }
  }
  Node* candidate = cur->next[0];
  return (candidate != nullptr && candidate->key == key) ? candidate : nullptr;
}

// ---------------------------------------------------------------------------
// Blocking (implicitly batched) API.
// ---------------------------------------------------------------------------

bool BatchedSkipList::insert(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

void BatchedSkipList::multi_insert(std::span<const Key> keys) {
  if (keys.empty()) return;
  Op op;
  op.kind = Kind::MultiInsert;
  op.keys = keys.data();
  op.num_keys = keys.size();
  batcher_.batchify(op);
}

bool BatchedSkipList::contains(Key key) {
  Op op;
  op.kind = Kind::Contains;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedSkipList::erase(Key key) {
  Op op;
  op.kind = Kind::Erase;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

std::optional<BatchedSkipList::Key> BatchedSkipList::successor(Key probe) {
  Op op;
  op.kind = Kind::Successor;
  op.key = probe;
  batcher_.batchify(op);
  return op.out_key;
}

std::int64_t BatchedSkipList::range_count(Key lo, Key hi) {
  Op op;
  op.kind = Kind::RangeCount;
  op.key = lo;
  op.key2 = hi;
  batcher_.batchify(op);
  return op.count;
}

// ---------------------------------------------------------------------------
// Unsynchronized setup/inspection API.
// ---------------------------------------------------------------------------

bool BatchedSkipList::insert_unsafe(Key key) {
  Node* preds[kMaxHeight];
  find_preds(key, preds);
  Node* hit = preds[0]->next[0];
  if (hit != nullptr && hit->key == key) return false;
  const int h = random_height();
  Node* node = allocate_node(key, h);
  if (h > height_) height_ = h;
  for (int l = 0; l < h; ++l) {
    node->next[l] = preds[l]->next[l];
    preds[l]->next[l] = node;
  }
  ++size_;
  return true;
}

bool BatchedSkipList::erase_unsafe(Key key) {
  Node* preds[kMaxHeight];
  find_preds(key, preds);
  Node* hit = preds[0]->next[0];
  if (hit == nullptr || hit->key != key) return false;
  for (int l = 0; l < hit->height; ++l) preds[l]->next[l] = hit->next[l];
  hit->erased = true;
  --size_;
  while (height_ > 1 && head_->next[height_ - 1] == nullptr) --height_;
  return true;
}

bool BatchedSkipList::contains_unsafe(Key key) const {
  return find_node(key) != nullptr;
}

bool BatchedSkipList::check_invariants() const {
  // Level 0 sorted and counted.
  std::size_t count = 0;
  for (Node* n = head_->next[0]; n != nullptr; n = n->next[0]) {
    ++count;
    if (n->next[0] != nullptr && !(n->key < n->next[0]->key)) return false;
  }
  if (count != size_) return false;
  // Every upper level is a sorted sublist of level 0.
  for (int l = 1; l < height_; ++l) {
    Node* lower = head_->next[0];
    for (Node* n = head_->next[l]; n != nullptr; n = n->next[l]) {
      if (n->height <= l) return false;
      while (lower != nullptr && lower->key < n->key) lower = lower->next[0];
      if (lower != n) return false;
      if (n->next[l] != nullptr && !(n->key < n->next[l]->key)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedSkipList::run_batch(OpRecordBase* const* ops, std::size_t count) {
  contains_ops_.clear();
  erase_ops_.clear();
  insert_ops_.clear();
  multi_ops_.clear();
  std::size_t write_keys = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    switch (op->kind) {
      case Kind::Contains:
      case Kind::Successor:
      case Kind::RangeCount:
        contains_ops_.push_back(op);
        break;
      case Kind::Erase:
        erase_ops_.push_back(op);
        ++write_keys;
        break;
      case Kind::Insert:
        insert_ops_.push_back(op);
        ++write_keys;
        break;
      case Kind::MultiInsert:
        multi_ops_.push_back(op);
        write_keys += op->num_keys;
        break;
    }
  }
  // Documented phase order: reads (pre-state), erase, insert.
  if (!contains_ops_.empty()) apply_reads(contains_ops_);
  if (write_keys <= kSerialApplyMaxKeys) {
    // Small batch: replay the writes in working-set order on the live list.
    // The first erase and the first single insert of a key win, and
    // MultiInsert keys go last, exactly as the sort-merge tie-break orders
    // them.
    for (Op* op : erase_ops_) op->found = erase_unsafe(op->key);
    for (Op* op : insert_ops_) op->found = insert_unsafe(op->key);
    for (const Op* op : multi_ops_) {
      for (std::size_t k = 0; k < op->num_keys; ++k) insert_unsafe(op->keys[k]);
    }
    return;
  }
  if (!erase_ops_.empty()) apply_erases(erase_ops_);
  if (!insert_ops_.empty() || !multi_ops_.empty()) {
    apply_inserts(insert_ops_, multi_ops_);
  }
}

void BatchedSkipList::apply_reads(std::vector<Op*>& ops) {
  rt::parallel_for(
      0, static_cast<std::int64_t>(ops.size()),
      [&](std::int64_t i) {
        Op* op = ops[static_cast<std::size_t>(i)];
        switch (op->kind) {
          case Kind::Contains:
            op->found = (find_node(op->key) != nullptr);
            break;
          case Kind::Successor: {
            // Descend to the predecessor of the probe, then step once.
            const Node* cur = head_;
            for (int l = height_ - 1; l >= 0; --l) {
              while (cur->next[l] != nullptr && cur->next[l]->key < op->key) {
                cur = cur->next[l];
              }
            }
            const Node* succ = cur->next[0];
            op->out_key = succ != nullptr ? std::optional<Key>(succ->key)
                                          : std::nullopt;
            break;
          }
          case Kind::RangeCount: {
            const Node* cur = head_;
            for (int l = height_ - 1; l >= 0; --l) {
              while (cur->next[l] != nullptr && cur->next[l]->key < op->key) {
                cur = cur->next[l];
              }
            }
            std::int64_t n = 0;
            for (const Node* it = cur->next[0];
                 it != nullptr && it->key <= op->key2; it = it->next[0]) {
              ++n;
            }
            op->count = n;
            break;
          }
          default:
            break;
        }
      },
      /*grain=*/8);
}

void BatchedSkipList::apply_erases(std::vector<Op*>& ops) {
  // Sort (key, op index): first op on a key wins the erase.
  std::vector<TaggedKey> keys(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  par::parallel_sort(keys.data(), static_cast<std::int64_t>(keys.size()));

  // Search phase (read-only): per-level predecessors plus the victim node
  // for the first op on each distinct key, one lockstep group per leaf
  // (search_sorted), as in apply_inserts' step 2.  Searches run before any
  // unlink, so preds[0]->next[0] is the exact pre-batch candidate.
  // Scratch grows but is never pre-cleared: every slot the later passes read
  // is written here (including explicit nulls for duplicates and misses), so
  // a serial O(n·lg n)-byte fill never lands on the critical path.
  const std::size_t nk = keys.size();
  if (pred_scratch_.size() < nk * kMaxHeight) {
    pred_scratch_.resize(nk * kMaxHeight);
  }
  if (node_scratch_.size() < nk) node_scratch_.resize(nk);
  search_sorted(
      keys.data(), nk, /*with_succs=*/false,
      [&](std::size_t idx) {
        ops[keys[idx].ws]->found = false;  // duplicate erase loses
        node_scratch_[idx] = nullptr;
      },
      [&](std::size_t idx, Node* hit) {
        node_scratch_[idx] = hit;
        ops[keys[idx].ws]->found = hit != nullptr;
      });

  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(nk),
      [&](std::int64_t i) {
        return node_scratch_[static_cast<std::size_t>(i)] != nullptr;
      },
      live_index_);
  if (m == 0) return;

  // Mark all victims before touching any pointer: the unlink pass below uses
  // `erased` to recognize "my recorded predecessor is itself a victim".
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        node_scratch_[live_index_[static_cast<std::size_t>(j)]]->erased = true;
      },
      /*grain=*/64);

  // Unlink, one independent pass per level.  At level l the victims (in key
  // order) split into maximal chain-adjacent runs: a victim whose recorded
  // level-l predecessor is live starts a run, and the level-l predecessor of
  // a victim is chain-adjacent, so a dead predecessor is exactly the
  // previous level-l victim.  Each run's head rewires the single live
  // predecessor past the whole run; victims' own pointers stay pristine, so
  // every memory location is written by exactly one task.
  rt::parallel_for(
      0, height_,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        std::vector<std::uint32_t> at_level;
        const std::int64_t sz = par::pack_indices(
            m,
            [&](std::int64_t j) {
              return node_scratch_[live_index_[static_cast<std::size_t>(j)]]
                         ->height > l;
            },
            at_level);
        if (sz == 0) return;
        auto pred_of = [&](std::int64_t t) -> Node* {
          const std::size_t idx = live_index_[at_level[
              static_cast<std::size_t>(t)]];
          return pred_scratch_[idx * kMaxHeight + l];
        };
        auto victim_of = [&](std::int64_t t) -> Node* {
          return node_scratch_[live_index_[at_level[
              static_cast<std::size_t>(t)]]];
        };
        // Run ids via inclusive scan of head flags, then scatter each run's
        // last position so heads can reach their run's tail in O(1).
        std::vector<std::uint32_t> run_id(static_cast<std::size_t>(sz));
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const bool head = t == 0 || !pred_of(t)->erased;
              run_id[static_cast<std::size_t>(t)] = head ? 1u : 0u;
            },
            /*grain=*/32);
        par::scan_inclusive(run_id.data(), sz,
                            [](std::uint32_t a, std::uint32_t b) {
                              return a + b;
                            });
        const std::size_t nruns = run_id[static_cast<std::size_t>(sz - 1)];
        std::vector<std::uint32_t> run_last(nruns);
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              if (t + 1 == sz || run_id[ti + 1] != run_id[ti]) {
                run_last[run_id[ti] - 1] = static_cast<std::uint32_t>(t);
              }
            },
            /*grain=*/32);
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              const bool head = t == 0 || run_id[ti - 1] != run_id[ti];
              if (!head) return;
              Node* tail = victim_of(run_last[run_id[ti] - 1]);
              pred_of(t)->next[l] = tail->next[l];
            },
            /*grain=*/16);
      },
      /*grain=*/1);

  size_ -= static_cast<std::size_t>(m);
  while (height_ > 1 && head_->next[height_ - 1] == nullptr) --height_;
}

void BatchedSkipList::apply_inserts(const std::vector<Op*>& single,
                                    const std::vector<Op*>& multi) {
  // Step 1 (gather): compute per-op key offsets with a prefix sum, then copy
  // all keys in parallel.
  const std::size_t num_sources = single.size() + multi.size();
  key_offsets_.assign(num_sources, 0);
  for (std::size_t i = 0; i < single.size(); ++i) key_offsets_[i] = 1;
  for (std::size_t i = 0; i < multi.size(); ++i) {
    key_offsets_[single.size() + i] =
        static_cast<std::uint32_t>(multi[i]->num_keys);
  }
  par::scan_inclusive(key_offsets_.data(),
                      static_cast<std::int64_t>(num_sources),
                      [](std::uint32_t a, std::uint32_t b) { return a + b; });
  const std::size_t total_keys = key_offsets_[num_sources - 1];

  std::vector<TaggedKey> keys(total_keys);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t si) {
        const auto s = static_cast<std::size_t>(si);
        const std::size_t end = key_offsets_[s];
        if (s < single.size()) {
          keys[end - 1] = TaggedKey{single[s]->key, static_cast<std::uint32_t>(s)};
        } else {
          const Op* op = multi[s - single.size()];
          const std::size_t begin = end - op->num_keys;
          for (std::size_t k = 0; k < op->num_keys; ++k) {
            keys[begin + k] =
                TaggedKey{op->keys[k], static_cast<std::uint32_t>(s)};
          }
        }
      },
      /*grain=*/8);

  // Step 1 (sort).
  par::parallel_sort(keys.data(), static_cast<std::int64_t>(keys.size()));

  // Step 2 (parallel search): per-level predecessors *and* their pre-batch
  // successors for the first occurrence of every distinct key, plus the
  // presence test.  Each leaf searches its distinct keys as one lockstep
  // group (search_sorted).  The list is untouched until the splice, so
  // preds[0]->next[0] is exact and no re-walk is needed.
  // Scratch grows but is never pre-cleared (see apply_erases):
  // every slot read downstream — flags for all records, preds/succs for the
  // packed fresh records — is written by this pass.
  const std::size_t nk = keys.size();
  if (pred_scratch_.size() < nk * kMaxHeight) {
    pred_scratch_.resize(nk * kMaxHeight);
  }
  if (succ_scratch_.size() < nk * kMaxHeight) {
    succ_scratch_.resize(nk * kMaxHeight);
  }
  if (flag_scratch_.size() < nk) flag_scratch_.resize(nk);
  auto single_op = [&](std::size_t idx) -> Op* {
    const std::uint32_t src = keys[idx].ws;
    return src < single.size() ? single[src] : nullptr;
  };
  search_sorted(
      keys.data(), nk, /*with_succs=*/true,
      [&](std::size_t idx) {
        if (Op* op = single_op(idx)) op->found = false;  // in-batch dup
        flag_scratch_[idx] = 0;
      },
      [&](std::size_t idx, Node* hit) {
        flag_scratch_[idx] = hit != nullptr ? 0 : 1;
        if (Op* op = single_op(idx)) op->found = hit == nullptr;
      });

  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(nk),
      [&](std::int64_t i) {
        return flag_scratch_[static_cast<std::size_t>(i)] != 0;
      },
      live_index_);
  if (m == 0) return;

  // Draw heights and carve one contiguous arena block: per-node byte sizes,
  // exclusive scan for offsets, then parallel placement-init.
  const std::uint64_t batch_seed = rng_.next();
  height_scratch_.resize(static_cast<std::size_t>(m));
  offset_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        const int h = height_from_bits(
            mix64(batch_seed + static_cast<std::uint64_t>(j)));
        height_scratch_[ji] = h;
        const std::size_t bytes =
            sizeof(Node) + sizeof(Node*) * static_cast<std::size_t>(h - 1);
        offset_scratch_[ji] = (bytes + 15) & ~std::size_t{15};
      },
      /*grain=*/64);
  const std::size_t total_bytes = par::scan_exclusive(
      offset_scratch_.data(), m,
      [](std::size_t a, std::size_t b) { return a + b; }, std::size_t{0});
  char* base = allocate_bulk(total_bytes);
  node_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        Node* node = reinterpret_cast<Node*>(base + offset_scratch_[ji]);
        node->key = keys[live_index_[ji]].key;
        node->height = height_scratch_[ji];
        node->erased = false;
        node_scratch_[ji] = node;
      },
      /*grain=*/32);

  // Step 3 (divide-and-conquer splice): levels are pointer-disjoint, so they
  // run in parallel; within a level, new nodes sharing a pre-batch
  // predecessor form a contiguous segment in key order.  Every node writes
  // its own forward pointer (next new node in its segment, else the shared
  // predecessor's pre-batch successor) and each segment head rewires the
  // predecessor — one flat parallel_for, each location written once.
  // Levels above the tallest new node are empty; skip them.
  const int max_new_h = static_cast<int>(par::reduce<std::int64_t>(
      m,
      [&](std::int64_t j) {
        return static_cast<std::int64_t>(
            height_scratch_[static_cast<std::size_t>(j)]);
      },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::int64_t{1}));
  rt::parallel_for(
      0, max_new_h,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        std::vector<std::uint32_t> at_level;
        const std::int64_t sz = par::pack_indices(
            m,
            [&](std::int64_t j) {
              return height_scratch_[static_cast<std::size_t>(j)] > l;
            },
            at_level);
        if (sz == 0) return;
        auto pred_of = [&](std::int64_t t) -> Node* {
          const std::size_t idx = live_index_[at_level[
              static_cast<std::size_t>(t)]];
          return pred_scratch_[idx * kMaxHeight + l];
        };
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              const std::size_t idx = live_index_[at_level[ti]];
              Node* node = node_scratch_[at_level[ti]];
              Node* pred = pred_of(t);
              if (t + 1 < sz && pred_of(t + 1) == pred) {
                node->next[l] = node_scratch_[at_level[ti + 1]];
              } else {
                node->next[l] = succ_scratch_[idx * kMaxHeight + l];
              }
              if (t == 0 || pred_of(t - 1) != pred) {
                pred->next[l] = node;  // segment head rewires the predecessor
              }
            },
            /*grain=*/16);
      },
      /*grain=*/1);

  size_ += static_cast<std::size_t>(m);
  for (int l = height_; l < kMaxHeight; ++l) {
    if (head_->next[l] != nullptr) height_ = l + 1;
  }
}

}  // namespace batcher::ds
