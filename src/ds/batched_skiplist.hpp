// Batched skip list — the data structure of the paper's experimental
// evaluation (§7).
//
// The BOP follows the paper's three-step batch insert:
//   1. gather the batch's keys (parallel, offsets via prefix sums) and sort
//      them (parallel merge sort);
//   2. search the main list for every key's per-level predecessors and
//      successors (read-only, embarrassingly parallel).  Each leaf of the
//      search pass takes up to kSearchGroup sorted distinct keys and walks
//      their cursors in lockstep (find_preds_group): every round moves each
//      unfinished cursor one hop and prefetches the node it compares next.
//      A lone search is a chain of dependent loads that miss once the list
//      outgrows cache; the group's chains are independent, so their misses
//      overlap and a leaf waits out about one chain instead of one per key;
//   3. splice the new nodes into the main list.
//
// Step 3 is a per-level divide-and-conquer splice: new nodes sharing a
// pre-batch level-l predecessor form a contiguous segment; segments with
// distinct predecessors touch disjoint pointers, so every node writes its own
// forward pointer and each segment head rewires the shared predecessor, all
// in one flat parallel_for per level (levels are themselves independent).
// Erases unlink the same way: victims at a level split into chain-adjacent
// runs and each run's single live predecessor is rewired past the run.
// s(n) = O(lg n · lg x) span.
//
// Batches with at most kSerialApplyMaxKeys write keys (erases, single
// inserts, and every MultiInsert payload key) skip all three steps: the
// writes replay serially in working-set order through erase_unsafe /
// insert_unsafe, which is the sequential model itself and costs no gather,
// sort or scratch (DESIGN.md §16).
//
// Batches may mix operation kinds.  Phase order within a batch (documented
// semantics; the paper leaves it open): CONTAINS observes the pre-batch
// state, then ERASE, then INSERT.  Each op record also supports the paper's
// experimental trick of carrying many keys per record (their BATCHIFY call
// created 100 insertion records at once) via MultiInsert.
//
// Following Invariant 1, nothing here is synchronized: no locks, no atomics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "ds/batch_prep.hpp"
#include "support/rng.hpp"

namespace batcher::ds {

class BatchedSkipList final : public BatchedStructure {
 public:
  using Key = std::int64_t;

  enum class Kind : std::uint8_t {
    Insert,
    MultiInsert,
    Contains,
    Erase,
    Successor,   // smallest key >= probe -> out_key
    RangeCount,  // #keys in [key, key2] -> count
  };

  struct Op : OpRecordBase {
    Kind kind = Kind::Insert;
    Key key = 0;                   // Insert / Contains / Erase / read probes
    Key key2 = 0;                  // RangeCount upper bound
    const Key* keys = nullptr;     // MultiInsert
    std::size_t num_keys = 0;      // MultiInsert
    bool found = false;            // result: Contains / Erase hit, or Insert
                                   // actually inserted a new key
    std::int64_t count = 0;        // RangeCount result
    std::optional<Key> out_key;    // Successor result
  };

  explicit BatchedSkipList(rt::Scheduler& sched,
                           std::uint64_t seed = 0xdecafbadULL,
                           Batcher::SetupPolicy setup = Batcher::kDefaultSetup);
  ~BatchedSkipList() override;

  BatchedSkipList(const BatchedSkipList&) = delete;
  BatchedSkipList& operator=(const BatchedSkipList&) = delete;

  // --- blocking, implicitly batched operations (algorithm-programmer API) ---
  bool insert(Key key);
  void multi_insert(std::span<const Key> keys);
  bool contains(Key key);
  bool erase(Key key);
  // Smallest key >= probe, if any.
  std::optional<Key> successor(Key probe);
  // Number of keys in [lo, hi].  Costs O(lg n + answer): the count walks the
  // level-0 chain across the range.
  std::int64_t range_count(Key lo, Key hi);

  // --- unsynchronized operations for setup/inspection outside runs ---
  bool insert_unsafe(Key key);      // used to pre-populate before timing
  bool contains_unsafe(Key key) const;
  std::size_t size_unsafe() const { return size_; }
  int height_unsafe() const { return height_; }

  // Structural self-check: sorted level-0 chain, every level a sublist of
  // the level below, size consistent.  For tests.
  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  // BOP.
  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  static constexpr int kMaxHeight = 24;

  struct Node {
    Key key;
    int height;
    bool erased;    // set when unlinked; lets a later erase in the same batch
                    // detect that its recorded predecessor is dead
    Node* next[1];  // flexible: `height` pointers, allocated by arena
  };

  Node* allocate_node(Key key, int height);
  // Reserves `bytes` of contiguous arena space (16-byte aligned) so a batch
  // can carve per-node offsets with one scan and initialize in parallel.
  char* allocate_bulk(std::size_t bytes);
  int random_height();
  static int height_from_bits(std::uint64_t bits);
  // Per-level predecessors of `key` (strictly smaller), highest levels first
  // filled with head_.  `preds` must have room for kMaxHeight entries.
  void find_preds(Key key, Node** preds) const;
  // find_preds for n <= kSearchGroup keys at once, their cursors advanced in
  // lockstep with prefetch: key j fills the kMaxHeight-entry rows preds[j]
  // and, if `succs` is non-null, succs[j] with each predecessor's pre-batch
  // successor (preds[j][l]->next[l] at search time).  Used by the sort-merge
  // path only: with one key it has nothing to overlap, and the sequential
  // model's one-key find_preds is faster there (DESIGN.md §16).
  void find_preds_group(const Key* keys, Node** const* preds,
                        Node** const* succs, std::size_t n) const;
  // The sort-merge search pass over the sorted batch keys[0, nk): parallel
  // leaves of kSearchGroup records, each searching its distinct keys as one
  // group into row idx of pred_scratch_ (and of succ_scratch_ if
  // `with_succs`).  A record repeating its predecessor's key goes to
  // on_dup(idx); the first record of a key goes to on_result(idx, hit), hit
  // being the pre-batch level-0 node holding the key, or nullptr.
  template <class OnDup, class OnResult>
  void search_sorted(const prep::Tagged<Key>* keys, std::size_t nk,
                     bool with_succs, const OnDup& on_dup,
                     const OnResult& on_result);
  Node* find_node(Key key) const;  // level-0 node with exact key, or nullptr

  // Small-batch counterpart of insert_unsafe: unlinks `key` if present.
  bool erase_unsafe(Key key);

  void apply_reads(std::vector<Op*>& ops);
  void apply_erases(std::vector<Op*>& ops);
  void apply_inserts(const std::vector<Op*>& single,
                     const std::vector<Op*>& multi);

  Node* head_;
  int height_ = 1;     // number of levels currently in use
  std::size_t size_ = 0;
  Xoshiro256 rng_;

  // Bump-pointer arena.  Erased nodes are unlinked but reclaimed only at
  // destruction: with at most one batch running there is no safe-memory-
  // reclamation problem to solve, and the benchmarks are insert-dominated.
  std::vector<char*> arena_blocks_;
  std::size_t arena_used_ = 0;
  std::size_t arena_cap_ = 0;

  // Scratch reused across batches.
  std::vector<Op*> contains_ops_, erase_ops_, insert_ops_, multi_ops_;
  std::vector<std::uint32_t> key_offsets_;
  std::vector<Node*> pred_scratch_;
  std::vector<Node*> succ_scratch_;
  std::vector<std::uint8_t> flag_scratch_;
  std::vector<std::uint32_t> live_index_;     // packed fresh/victim positions
  std::vector<Node*> node_scratch_;           // new nodes / victims, key order
  std::vector<int> height_scratch_;
  std::vector<std::size_t> offset_scratch_;   // per-node arena byte offsets

  Batcher batcher_;
};

}  // namespace batcher::ds
